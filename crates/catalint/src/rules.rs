//! The lint rules, ported and new, all running on the token tree.
//!
//! **Ported rules** (1–7 of the old line-based pass — same names, same
//! escape hatch, now immune to lookalike text in strings and comments):
//! `kernel-no-panic`, `doc-coverage`, `float-eq`, `lint-header`,
//! `consume-completeness`, `no-raw-spawn`, `metric-name`, `raw-instant`.
//!
//! **Determinism rules** (new): `hash-iter-order`, `float-total-order`,
//! `cast-truncation`. CATAPULT's pattern scores are products of small
//! f64 factors (ccov × lcov × div / cog, paper §5) consumed by a greedy
//! argmax, and the workspace guarantees byte-identical `SelectionResult`
//! and run manifests across `threads ∈ {1,2,8}`. Hash-map iteration
//! order, float comparators without a total order, and silently
//! truncating casts are exactly the hazards that break that guarantee
//! *before* a golden test can flake — these rules catch them at lint
//! time.
//!
//! **Concurrency rules** (new): `interior-mutability` (shared state is
//! only allowed where the execution model owns it), `lock-order` (any
//! scope taking two locks is flagged so acquisition order stays
//! centrally auditable).

use crate::diag::{Diagnostic, Suppression};
use crate::lexer::TokenKind;
use crate::scan::SourceFile;
use crate::timing::RuleTimer;
use std::collections::BTreeSet;
use std::path::Path;

/// Name and one-line summary of a rule (for `--rule` validation and the
/// JSON report).
#[derive(Clone, Copy, Debug)]
pub struct RuleInfo {
    /// The rule's name as used by `--rule` and `xtask-allow`.
    pub name: &'static str,
    /// One-line summary.
    pub summary: &'static str,
}

/// Every rule, in the order findings are reported.
pub const RULES: &[RuleInfo] = &[
    RuleInfo {
        name: "kernel-no-panic",
        summary: "search kernels must not panic!/unwrap outside tests",
    },
    RuleInfo {
        name: "doc-coverage",
        summary: "public items in graph/core carry doc comments",
    },
    RuleInfo {
        name: "float-eq",
        summary: "no ==/!= against float literals in scoring code",
    },
    RuleInfo {
        name: "lint-header",
        summary: "crate roots state where the lint policy lives",
    },
    RuleInfo {
        name: "consume-completeness",
        summary: "pipeline code must not drop kernel Completeness tags",
    },
    RuleInfo {
        name: "no-raw-spawn",
        summary: "thread::spawn only inside the rayon shim",
    },
    RuleInfo {
        name: "metric-name",
        summary:
            "metric/flight-event names follow stage.kernel.metric; no raw eprintln in pipeline code",
    },
    RuleInfo {
        name: "raw-instant",
        summary: "Instant::now only inside crates/obs and the shims",
    },
    RuleInfo {
        name: "hash-iter-order",
        summary: "no unordered HashMap/HashSet iteration feeding results",
    },
    RuleInfo {
        name: "float-total-order",
        summary: "f64 comparators go through total_cmp",
    },
    RuleInfo {
        name: "cast-truncation",
        summary: "no narrowing `as` casts in kernel/index arithmetic",
    },
    RuleInfo {
        name: "interior-mutability",
        summary: "shared/global state only in sanctioned modules",
    },
    RuleInfo {
        name: "lock-order",
        summary: "scopes taking two locks are flagged for order audit",
    },
    RuleInfo {
        name: "unwind-safety",
        summary: "catch_unwind/resume_unwind only in shims/rayon and crates/ckpt",
    },
];

/// Look up a rule by name.
#[must_use]
pub fn rule_named(name: &str) -> Option<&'static RuleInfo> {
    RULES.iter().find(|r| r.name == name)
}

/// Per-file context the path predicates cannot derive alone.
#[derive(Debug)]
pub struct FileCtx<'a> {
    /// Absolute workspace root (for sibling-file doc resolution).
    pub root: &'a Path,
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

/// Dirs whose public items must be documented.
const DOC_COVERED_DIRS: &[&str] = &["crates/graph/src/", "crates/core/src/"];

/// Pipeline dirs that must consume `Completeness` (graph defines the
/// swallowing conveniences and is exempt).
pub(crate) const COMPLETENESS_DIRS: &[&str] = &[
    "crates/cluster/src/",
    "crates/core/src/",
    "crates/csg/src/",
    "crates/eval/src/",
    "crates/mining/src/",
    "src/",
];

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

/// Run every enabled rule over one file.
pub fn check_file(
    f: &SourceFile,
    ctx: &FileCtx<'_>,
    enabled: &BTreeSet<&'static str>,
    out: &mut Vec<Diagnostic>,
) {
    check_file_timed(f, ctx, enabled, out, &mut RuleTimer::new(false));
}

/// [`check_file`] with per-rule wall-clock accounting (`--timing`).
pub fn check_file_timed(
    f: &SourceFile,
    ctx: &FileCtx<'_>,
    enabled: &BTreeSet<&'static str>,
    out: &mut Vec<Diagnostic>,
    timer: &mut RuleTimer,
) {
    let rel = f.rel.as_str();
    let on = |name: &str| enabled.contains(name);

    if on("kernel-no-panic") && KERNEL_FILES.contains(&rel) {
        timer.time("kernel-no-panic", || kernel_no_panic(f, out));
    }
    if on("doc-coverage") && in_dirs(rel, DOC_COVERED_DIRS) {
        timer.time("doc-coverage", || doc_coverage(f, ctx, out));
    }
    if on("float-eq") && SCORING_FILES.contains(&rel) {
        timer.time("float-eq", || float_eq(f, out));
    }
    if on("lint-header") && ctx.is_crate_root {
        timer.time("lint-header", || lint_header(f, out));
    }
    if on("consume-completeness") && in_dirs(rel, COMPLETENESS_DIRS) {
        timer.time("consume-completeness", || consume_completeness(f, out));
    }
    if on("no-raw-spawn") && !rel.starts_with("shims/rayon/") {
        timer.time("no-raw-spawn", || no_raw_spawn(f, out));
    }
    let obs_scope = !rel.starts_with("crates/obs/") && !rel.starts_with("shims/");
    if on("metric-name") && obs_scope {
        // CLI-style binaries (`/bin/`), xtask, and catalint itself talk
        // to a terminal on purpose; the eprintln ban covers library
        // pipeline code only, where stderr output should flow through
        // `catapult_obs::warn` / the progress meter.
        let forbid_eprintln = is_library_src(rel)
            && !rel.contains("/bin/")
            && !rel.starts_with("crates/xtask/")
            && !rel.starts_with("crates/catalint/");
        timer.time("metric-name", || metric_name(f, forbid_eprintln, out));
    }
    if on("raw-instant") && obs_scope {
        timer.time("raw-instant", || raw_instant(f, out));
    }
    if on("hash-iter-order") && is_library_src(rel) {
        timer.time("hash-iter-order", || hash_iter_order(f, out));
    }
    if on("float-total-order") && is_library_src(rel) {
        timer.time("float-total-order", || float_total_order(f, out));
    }
    if on("cast-truncation") && (KERNEL_FILES.contains(&rel) || CAST_EXTRA_FILES.contains(&rel)) {
        timer.time("cast-truncation", || cast_truncation(f, out));
    }
    if on("interior-mutability") && is_library_src(rel) && !in_dirs(rel, INTERIOR_MUT_ALLOWED) {
        timer.time("interior-mutability", || interior_mutability(f, out));
    }
    if on("lock-order") {
        timer.time("lock-order", || lock_order(f, out));
    }
    let unwind_scope =
        is_library_src(rel) && !rel.starts_with("shims/rayon/") && !rel.starts_with("crates/ckpt/");
    if on("unwind-safety") && unwind_scope {
        timer.time("unwind-safety", || unwind_safety(f, out));
    }
}

/// Record a finding at code token `ci`, honoring the escape hatch.
fn emit(f: &SourceFile, ci: usize, rule: &'static str, message: String, out: &mut Vec<Diagnostic>) {
    let (line, col) = f.cpos(ci);
    let enclosing = f.enclosing_fn(ci).unwrap_or_default().to_string();
    emit_at(f, line, col, enclosing, rule, message, out);
}

fn emit_at(
    f: &SourceFile,
    line: usize,
    col: usize,
    enclosing_fn: String,
    rule: &'static str,
    message: String,
    out: &mut Vec<Diagnostic>,
) {
    let suppressed = if f.allowed(line, rule) {
        Suppression::Allowed
    } else {
        Suppression::None
    };
    out.push(Diagnostic {
        rule,
        path: f.rel.clone(),
        line,
        col,
        snippet: f.line_snippet(line),
        enclosing_fn,
        message,
        suppressed,
    });
}

// ---- ported rules ------------------------------------------------------

/// Rule `kernel-no-panic`: no `panic!` / `.unwrap()` in kernel files
/// outside `#[cfg(test)]` items.
fn kernel_no_panic(f: &SourceFile, out: &mut Vec<Diagnostic>) {
    for ci in 0..f.n_code() {
        if f.in_test(ci) {
            continue;
        }
        if f.is_ident(ci, "panic") && f.is_punct(ci + 1, "!") {
            emit(
                f,
                ci,
                "kernel-no-panic",
                "`panic!` in a search kernel outside #[cfg(test)] aborts a whole \
                 selection run; return an error or degrade via the SearchBudget"
                    .into(),
                out,
            );
        }
        if f.is_punct(ci, ".") && f.is_ident(ci + 1, "unwrap") && f.is_punct(ci + 2, "(") {
            emit(
                f,
                ci + 1,
                "kernel-no-panic",
                "`.unwrap()` in a search kernel outside #[cfg(test)]; handle the \
                 None/Err arm explicitly"
                    .into(),
                out,
            );
        }
    }
}

/// Item keywords whose `pub` form needs a doc comment.
const DOC_ITEM_KINDS: &[&str] = &["fn", "struct", "enum", "trait", "const", "type", "mod"];

/// Rule `doc-coverage`: public items in the covered crates carry a doc
/// comment (`///` line docs, `/** */` block docs, or a `#[doc]`
/// attribute; `pub mod x;` counts when `x.rs` opens with `//!`).
fn doc_coverage(f: &SourceFile, ctx: &FileCtx<'_>, out: &mut Vec<Diagnostic>) {
    for ci in 0..f.n_code() {
        if f.in_test(ci) || !f.is_ident(ci, "pub") {
            continue;
        }
        if f.is_punct(ci + 1, "(") {
            continue; // `pub(crate)` and friends are crate-internal.
        }
        if ci + 1 >= f.n_code() || f.ckind(ci + 1) != TokenKind::Ident {
            continue;
        }
        let kw = f.ctext(ci + 1);
        if !DOC_ITEM_KINDS.contains(&kw) {
            continue;
        }
        if has_doc_above(f, ci) || (kw == "mod" && mod_file_has_inner_docs(f, ctx, ci + 2)) {
            continue;
        }
        let item: String = (ci..f.n_code().min(ci + 3))
            .map(|i| f.ctext(i))
            .collect::<Vec<_>>()
            .join(" ");
        emit(
            f,
            ci,
            "doc-coverage",
            format!("undocumented public item: `{item} …`"),
            out,
        );
    }
}

/// Walk the raw token stream upwards from the `pub` token, skipping
/// whitespace and attribute stacks, looking for a doc comment.
fn has_doc_above(f: &SourceFile, pub_ci: usize) -> bool {
    let mut ri = f.raw_index(pub_ci);
    while ri > 0 {
        ri -= 1;
        let t = f.tokens[ri];
        match t.kind {
            TokenKind::Whitespace => continue,
            TokenKind::LineComment => {
                let text = t.text(&f.text);
                if text.starts_with("///") {
                    return true;
                }
                continue; // plain comments between docs and item are fine
            }
            TokenKind::BlockComment => {
                if t.text(&f.text).starts_with("/**") {
                    return true;
                }
                continue;
            }
            TokenKind::Punct if t.text(&f.text) == "]" => {
                // Skip an attribute stack `#[…]`; `#[doc…]` documents.
                let Some(close_ci) = raw_to_code(f, ri) else {
                    return false;
                };
                let Some(open_ci) = f.cmatch(close_ci) else {
                    return false;
                };
                if f.is_ident(open_ci + 1, "doc") {
                    return true;
                }
                let open_ri = f.raw_index(open_ci);
                if open_ri == 0 {
                    return false;
                }
                ri = open_ri - 1; // step over `#` next iteration
                if f.tokens[ri].text(&f.text) == "#" {
                    continue;
                }
                return false;
            }
            _ => return false,
        }
    }
    false
}

/// Map a raw token index back to its code index (None for trivia).
fn raw_to_code(f: &SourceFile, ri: usize) -> Option<usize> {
    (0..f.n_code()).find(|&ci| f.raw_index(ci) == ri)
}

/// `pub mod x;` counts as documented when `x.rs` (or `x/mod.rs`) opens
/// with `//!` / `/*!` inner docs — the shape `missing_docs` accepts.
fn mod_file_has_inner_docs(f: &SourceFile, ctx: &FileCtx<'_>, name_ci: usize) -> bool {
    if name_ci >= f.n_code() || !f.is_punct(name_ci + 1, ";") {
        return false;
    }
    let name = f.ctext(name_ci);
    let dir = match Path::new(&f.rel).parent() {
        Some(d) => ctx.root.join(d),
        None => return false,
    };
    for candidate in [
        dir.join(format!("{name}.rs")),
        dir.join(name).join("mod.rs"),
    ] {
        if let Ok(text) = std::fs::read_to_string(&candidate) {
            let opens_with_docs = text
                .lines()
                .find(|l| !l.trim().is_empty())
                .is_some_and(|l| {
                    l.trim_start().starts_with("//!") || l.trim_start().starts_with("/*!")
                });
            if opens_with_docs {
                return true;
            }
        }
    }
    false
}

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
        emit_at(
            f,
            1,
            1,
            String::new(),
            "lint-header",
            format!("crate root is missing the marker line `{LINT_HEADER}`"),
            out,
        );
    }
}

/// Completeness-swallowing kernel conveniences.
pub(crate) const SWALLOWING_KERNELS: &[&str] = &[
    "contains",
    "are_isomorphic",
    "mcs_similarity",
    "mccs_similarity",
    "find_embedding",
    "embeddings",
];

/// Rule `consume-completeness`: pipeline code must call the
/// `_tagged`/audited kernel variants, not the tag-dropping conveniences.
fn consume_completeness(f: &SourceFile, out: &mut Vec<Diagnostic>) {
    for ci in 0..f.n_code() {
        if f.in_test(ci) {
            continue;
        }
        if f.ckind(ci) != TokenKind::Ident || !SWALLOWING_KERNELS.contains(&f.ctext(ci)) {
            continue;
        }
        if !f.is_punct(ci + 1, "(") {
            continue; // not a call
        }
        if ci > 0 && (f.is_punct(ci - 1, ".") || f.is_ident(ci - 1, "fn")) {
            continue; // method call on a collection / unrelated definition
        }
        emit(
            f,
            ci,
            "consume-completeness",
            format!(
                "`{}(…)` drops the Completeness tag; use the _tagged/audited \
                 variant or annotate `// xtask-allow: consume-completeness`",
                f.ctext(ci)
            ),
            out,
        );
    }
}

/// Rule `no-raw-spawn`: `thread::spawn` only inside the rayon shim,
/// which owns pool sizing, ordered collection, and panic propagation.
/// Test code is *not* exempt — a stray spawn leaks threads there too.
fn no_raw_spawn(f: &SourceFile, out: &mut Vec<Diagnostic>) {
    for ci in 0..f.n_code() {
        if f.is_ident(ci, "thread")
            && f.is_punct(ci + 1, "::")
            && f.is_ident(ci + 2, "spawn")
            && f.is_punct(ci + 3, "(")
        {
            emit(
                f,
                ci,
                "no-raw-spawn",
                "`thread::spawn` outside shims/rayon bypasses the pool size, ordered \
                 collection, and panic propagation; use par_iter/join or annotate \
                 `// xtask-allow: no-raw-spawn`"
                    .into(),
                out,
            );
        }
    }
}

/// Rule `metric-name`: literal names registered on a `Recorder`
/// (`.counter("…")` / `.histogram("…")`) or logged to the flight
/// recorder (`flight::event("…", …)`) follow `stage.kernel.metric`
/// (≥ 3 lowercase dot-separated segments). When `forbid_eprintln` is
/// set (library pipeline code), raw `eprintln!` also fires: ad-hoc
/// stderr output bypasses both the flight recorder and the `--progress`
/// meter — route it through `catapult_obs::warn` instead.
fn metric_name(f: &SourceFile, forbid_eprintln: bool, out: &mut Vec<Diagnostic>) {
    for ci in 0..f.n_code() {
        if f.in_test(ci) {
            continue;
        }
        if f.is_punct(ci, ".")
            && (f.is_ident(ci + 1, "counter") || f.is_ident(ci + 1, "histogram"))
            && f.is_punct(ci + 2, "(")
            && ci + 3 < f.n_code()
            && f.ckind(ci + 3) == TokenKind::StrLit
        {
            check_metric_literal(f, ci + 3, out);
        }
        if f.is_ident(ci, "flight")
            && f.is_punct(ci + 1, "::")
            && f.is_ident(ci + 2, "event")
            && f.is_punct(ci + 3, "(")
            && ci + 4 < f.n_code()
            && f.ckind(ci + 4) == TokenKind::StrLit
        {
            check_metric_literal(f, ci + 4, out);
        }
        if forbid_eprintln && f.is_ident(ci, "eprintln") && f.is_punct(ci + 1, "!") {
            emit(
                f,
                ci,
                "metric-name",
                "raw `eprintln!` in pipeline code bypasses the flight recorder \
                 and the `--progress` meter; use `catapult_obs::warn` (or a \
                 counter/flight event), or annotate `// xtask-allow: metric-name`"
                    .into(),
                out,
            );
        }
    }
}

/// Shared literal check for recorder metrics and flight event names.
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

/// Rule `raw-instant`: no `Instant::now()` outside `crates/obs` and the
/// shims — ad-hoc clocks bypass the recorder epoch and the deadline
/// plumbing.
fn raw_instant(f: &SourceFile, out: &mut Vec<Diagnostic>) {
    for ci in 0..f.n_code() {
        if f.in_test(ci) {
            continue;
        }
        if f.is_ident(ci, "Instant")
            && f.is_punct(ci + 1, "::")
            && f.is_ident(ci + 2, "now")
            && f.is_punct(ci + 3, "(")
        {
            emit(
                f,
                ci,
                "raw-instant",
                "`Instant::now()` outside crates/obs bypasses the recorder epoch; \
                 use catapult_obs::now()/Stopwatch or a span, or annotate \
                 `// xtask-allow: raw-instant`"
                    .into(),
                out,
            );
        }
    }
}

// ---- determinism rules -------------------------------------------------

/// Iterator-producing methods on hash containers.
pub(crate) const HASH_ITER_METHODS: &[&str] = &[
    "iter",
    "iter_mut",
    "keys",
    "values",
    "values_mut",
    "into_iter",
    "into_keys",
    "into_values",
    "drain",
];

/// Order-insensitive consumers and ordering sinks: a statement containing
/// one of these cannot leak hash order into a result. `sum`, `min`, and
/// `max` families are deliberately *absent*: f64 sums are
/// order-sensitive (non-associative rounding) and min/max break ties by
/// encounter order.
pub(crate) const ORDER_SINKS: &[&str] = &[
    "sort",
    "sort_by",
    "sort_unstable",
    "sort_by_key",
    "sort_unstable_by",
    "sort_unstable_by_key",
    "sort_by_cached_key",
    "BTreeMap",
    "BTreeSet",
    "BinaryHeap",
    "count",
    "len",
    "is_empty",
    "all",
    "any",
    "contains",
    "contains_key",
];

/// Rule `hash-iter-order`: iterating a `HashMap`/`HashSet` without an
/// interposed ordering sink leaks nondeterministic order into whatever
/// consumes it — pattern scores, output, or a Recorder snapshot.
///
/// Hash-typed names are inferred per file from `let` bindings whose
/// statement mentions `HashMap`/`HashSet`, struct fields and fn params
/// typed as one, and `let` bindings calling a same-file fn that returns
/// one. A statement is clean when it contains an [`ORDER_SINKS`] token,
/// or when it is a `let` binding whose *next* statement immediately
/// sorts the bound collection (`let v = m.keys().collect(); v.sort();`).
fn hash_iter_order(f: &SourceFile, out: &mut Vec<Diagnostic>) {
    let hash_names = collect_hash_names(f);
    if hash_names.is_empty() {
        return;
    }
    let mut flagged_stmts: BTreeSet<usize> = BTreeSet::new();

    for ci in 0..f.n_code() {
        if f.in_test(ci) {
            continue;
        }
        // `name.iter()` / `self.field.keys()` chains.
        let chain = f.ckind(ci) == TokenKind::Ident
            && hash_names.contains(f.ctext(ci))
            && f.is_punct(ci + 1, ".")
            && ci + 2 < f.n_code()
            && f.ckind(ci + 2) == TokenKind::Ident
            && HASH_ITER_METHODS.contains(&f.ctext(ci + 2))
            && f.is_punct(ci + 3, "(");
        // `for x in name`-style direct iteration.
        let direct_for = f.is_ident(ci, "for") && {
            let (s, e) = f.stmt_range(ci);
            let in_at = (s..=e).find(|&i| f.is_ident(i, "in"));
            in_at.is_some_and(|at| {
                f.range_any((at + 1, e), |i| {
                    f.ckind(i) == TokenKind::Ident && hash_names.contains(f.ctext(i))
                })
            })
        };
        if !(chain || direct_for) {
            continue;
        }
        let emit_ci = if chain { ci + 2 } else { ci };
        let range = f.stmt_range(ci);
        if !flagged_stmts.insert(range.0) {
            continue; // one finding per statement
        }
        if f.range_any(range, |i| {
            f.ckind(i) == TokenKind::Ident && ORDER_SINKS.contains(&f.ctext(i))
        }) {
            continue;
        }
        if let_followed_by_sort(f, range) {
            continue;
        }
        emit(
            f,
            emit_ci,
            "hash-iter-order",
            "HashMap/HashSet iteration order is nondeterministic and can leak into \
             scores, output, or Recorder snapshots; collect into a BTreeMap/BTreeSet, \
             sort the result, or annotate `// xtask-allow: hash-iter-order` with a \
             justification"
                .into(),
            out,
        );
    }
}

/// Names known to hold a hash container in this file.
pub(crate) fn collect_hash_names(f: &SourceFile) -> BTreeSet<&str> {
    let mut names: BTreeSet<&str> = BTreeSet::new();
    let mut hash_fns: BTreeSet<&str> = BTreeSet::new();

    for ci in 0..f.n_code() {
        if !(f.is_ident(ci, "HashMap") || f.is_ident(ci, "HashSet")) {
            continue;
        }
        // (a) `let [mut] name` whose statement mentions the type.
        let (s, _) = f.stmt_range(ci);
        if f.is_ident(s, "let") {
            let at = if f.is_ident(s + 1, "mut") {
                s + 2
            } else {
                s + 1
            };
            if at < f.n_code()
                && f.ckind(at) == TokenKind::Ident
                && (f.is_punct(at + 1, ":") || f.is_punct(at + 1, "="))
            {
                names.insert(f.ctext(at));
            }
        }
        // Walk back over the path prefix (`std :: collections ::`) and
        // reference tokens to see what introduces the type.
        let mut p = ci;
        while p >= 2 && f.is_punct(p - 1, "::") && f.ckind(p - 2) == TokenKind::Ident {
            p -= 2;
        }
        while p >= 1
            && (f.is_punct(p - 1, "&")
                || f.is_ident(p - 1, "mut")
                || f.ckind(p - 1) == TokenKind::Lifetime)
        {
            p -= 1;
        }
        if p >= 2 && f.is_punct(p - 1, ":") && f.ckind(p - 2) == TokenKind::Ident {
            // (b) field or parameter: `name: HashMap<…>`.
            names.insert(f.ctext(p - 2));
        } else if p >= 1 && f.is_punct(p - 1, "->") {
            // (c) `fn name(…) -> HashMap<…>`: remember the fn.
            if let Some(open) = (0..p - 1)
                .rev()
                .find(|&i| f.is_punct(i, ")"))
                .and_then(|close| f.cmatch(close))
            {
                if open >= 1
                    && f.ckind(open - 1) == TokenKind::Ident
                    && open >= 2
                    && f.is_ident(open - 2, "fn")
                {
                    hash_fns.insert(f.ctext(open - 1));
                }
            }
        }
    }
    // (c, contd.) `let [mut] name = hash_fn(…)`.
    if !hash_fns.is_empty() {
        for ci in 0..f.n_code() {
            if !f.is_ident(ci, "let") {
                continue;
            }
            let at = if f.is_ident(ci + 1, "mut") {
                ci + 2
            } else {
                ci + 1
            };
            if at + 2 < f.n_code()
                && f.ckind(at) == TokenKind::Ident
                && f.is_punct(at + 1, "=")
                && f.ckind(at + 2) == TokenKind::Ident
                && hash_fns.contains(f.ctext(at + 2))
                && f.is_punct(at + 3, "(")
            {
                names.insert(f.ctext(at));
            }
        }
    }
    names
}

/// `let [mut] v = …;` immediately followed by `v.sort…` — the dominant
/// collect-then-sort idiom.
pub(crate) fn let_followed_by_sort(f: &SourceFile, (s, e): (usize, usize)) -> bool {
    if !f.is_ident(s, "let") || !f.is_punct(e, ";") {
        return false;
    }
    let at = if f.is_ident(s + 1, "mut") {
        s + 2
    } else {
        s + 1
    };
    if at >= f.n_code() || f.ckind(at) != TokenKind::Ident {
        return false;
    }
    let name = f.ctext(at);
    e + 3 < f.n_code()
        && f.is_ident(e + 1, name)
        && f.is_punct(e + 2, ".")
        && f.ckind(e + 3) == TokenKind::Ident
        && f.ctext(e + 3).starts_with("sort")
}

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
/// handled error, or a checked helper. Grandfathered sites live in the
/// baseline until burned down.
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

/// Rule `lock-order`: a lexical fn body that takes two or more locks is
/// flagged (from the second acquisition on) so every multi-lock scope in
/// the workspace carries an audited acquisition order.
fn lock_order(f: &SourceFile, out: &mut Vec<Diagnostic>) {
    let mut emitted: BTreeSet<usize> = BTreeSet::new();
    for ci in 0..f.n_code() {
        if !f.is_ident(ci, "fn") {
            continue;
        }
        // Find the body `{` at the fn's own depth (a `;` first means a
        // trait-method declaration without a body).
        let d = f.cdepth(ci);
        let mut body = None;
        let mut j = ci + 1;
        while j < f.n_code() {
            if f.cdepth(j) < d {
                break;
            }
            if f.cdepth(j) == d {
                if f.is_punct(j, ";") {
                    break;
                }
                if f.is_punct(j, "{") {
                    body = f.cmatch(j).map(|close| (j, close));
                    break;
                }
            }
            j += 1;
        }
        let Some((open, close)) = body else { continue };
        let mut locks: Vec<usize> = Vec::new();
        for k in open..=close {
            if f.is_punct(k, ".")
                && (f.is_ident(k + 1, "lock") || f.is_ident(k + 1, "try_lock"))
                && f.is_punct(k + 2, "(")
            {
                locks.push(k + 1);
            }
        }
        if locks.len() < 2 {
            continue;
        }
        for &at in &locks[1..] {
            if emitted.insert(at) {
                emit(
                    f,
                    at,
                    "lock-order",
                    format!(
                        "this fn body acquires {} locks; document the acquisition \
                         order and annotate `// xtask-allow: lock-order` once audited",
                        locks.len()
                    ),
                    out,
                );
            }
        }
    }
}

/// Rule `unwind-safety`: `catch_unwind`/`resume_unwind` only inside the
/// supervised executor (shims/rayon) and the checkpoint store
/// (crates/ckpt) — ad-hoc unwind handling elsewhere hides worker deaths
/// from the supervision policy and the `Completeness` tally, so a
/// panicked item would neither abort the run (fail-fast) nor be counted
/// as `failed` (keep-going).
fn unwind_safety(f: &SourceFile, out: &mut Vec<Diagnostic>) {
    for ci in 0..f.n_code() {
        if f.in_test(ci) {
            continue;
        }
        for name in ["catch_unwind", "resume_unwind"] {
            if f.is_ident(ci, name) && f.is_punct(ci + 1, "(") {
                emit(
                    f,
                    ci,
                    "unwind-safety",
                    format!(
                        "`{name}` outside shims/rayon and crates/ckpt bypasses the \
                         supervised executor's panic accounting; route worker \
                         isolation through `rayon::collect_isolated` or annotate \
                         `// xtask-allow: unwind-safety`"
                    ),
                    out,
                );
            }
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

    #[test]
    fn every_rule_has_unique_name() {
        let mut names: Vec<&str> = RULES.iter().map(|r| r.name).collect();
        names.sort_unstable();
        let before = names.len();
        names.dedup();
        assert_eq!(names.len(), before);
        assert!(rule_named("hash-iter-order").is_some());
        assert!(rule_named("nope").is_none());
    }
}
