//! Rule `taint`: interprocedural nondeterminism-taint analysis.
//!
//! CATAPULT's byte-determinism invariant (same DB, knobs, and seed →
//! same catalog) is enforced dynamically by the parallel-determinism and
//! resume-equivalence suites. This module enforces it *statically*: a
//! declarative model of **nondeterminism sources** (clock reads, thread
//! topology, env reads, unseeded RNG, hash iteration order, raw Mutex
//! acquisition order), **output sinks** (fns returning
//! `SelectionResult`/`PipelineReport`/`RunManifest` or any struct that
//! transitively embeds one, plus checkpoint wire writers), and
//! **sanitizers** (sort/BTree canonicalization, commutative
//! `merge`/`merge_all` folds), with taint propagated over
//! the **resolved** call-graph edges of [`crate::symbols::Workspace`] by
//! the same fixpoint machinery as the budget-threading obligation.
//!
//! The lattice is the powerset of [`KINDS`]; joins are unions. Order
//! kinds (`hash-order`, `lock-order`) are killed by an order sanitizer
//! on the propagating statement; value kinds (`time`, `thread`, `env`,
//! `rng`) survive any canonicalization and can only be sanctioned at
//! their source site with `// xtask-allow: taint -- <justification>` —
//! the justification is **mandatory**, a bare marker is itself an
//! active finding. Every flow finding carries a source→…→sink witness
//! path.
//!
//! Hash-container iteration is also reported at its own site when no
//! order sink canonicalizes it (the `ORDER_SINKS` family or an
//! immediate collect-then-sort), in every library file, the exempt
//! crates included, whether or not it reaches a sink: this rule is the
//! one detector for hash iteration order. One finding per site — where
//! a flow finding or a sanction already anchors at the iteration, the
//! site adds nothing.
//!
//! Approximation contract (same as `xrules`): only resolved edges
//! propagate, so the call graph's approximations cause false negatives,
//! never mis-attributed flows.
//!
//! The source/sink/propagation graph is internal to the rule: what
//! leaves it is findings, each carrying its own witness path.

use crate::diag::Diagnostic;
use crate::lexer::TokenKind;
use crate::rules;
use crate::scan::SourceFile;
use crate::symbols::{Callee, Workspace};
use std::collections::{BTreeMap, BTreeSet};

/// Taint kinds, in report order. `hash-order` and `lock-order` are the
/// *order* kinds an order sanitizer can kill; the rest are value kinds.
pub const KINDS: &[&str] = &["time", "thread", "env", "rng", "hash-order", "lock-order"];

/// Is this an order kind (killable by sort/BTree/merge canonicalization)?
fn is_order_kind(kind: &str) -> bool {
    matches!(kind, "hash-order" | "lock-order")
}

/// Deterministic-output type names seeding the sink closure. Structs
/// transitively embedding one of these are sinks too
/// ([`Workspace::embedding_closure`]), so a helper returning
/// `Bundle { sel: SelectionResult }` inherits the obligation.
const SINK_TYPE_SEEDS: &[&str] = &["SelectionResult", "PipelineReport", "RunManifest"];

/// Order-insensitive consumers and ordering sinks: a statement containing
/// one of these cannot leak hash order into a result. `sum`, `min`, and
/// `max` families are deliberately *absent*: f64 sums are
/// order-sensitive (non-associative rounding) and min/max break ties by
/// encounter order.
const ORDER_SINKS: &[&str] = &[
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

/// Statement tokens that canonicalize away *order* nondeterminism before
/// it can reach a sink: the [`ORDER_SINKS`] family plus the
/// commutative+associative fold conveniences.
const ORDER_SANITIZER_EXTRA: &[&str] = &["merge", "merge_all"];

/// Modules outside the determinism contract, never scanned for sources
/// or sinks: the observability crate (its recorder is proven
/// output-neutral and it *owns* the sanctioned clock), the executor
/// shim (thread topology is its job), the experiment harness (its
/// reports carry wall-clock timings by design), the analyzer and driver
/// themselves, and the fault-injection plans (test-only by feature
/// gate).
const EXEMPT_PREFIXES: &[&str] = &[
    "crates/obs/",
    "shims/",
    "crates/bench/",
    "crates/catalint/",
    "crates/xtask/",
    "crates/ckpt/src/fault.rs",
];

fn in_scope(rel: &str) -> bool {
    rules::is_library_src(rel) && !EXEMPT_PREFIXES.iter().any(|p| rel.starts_with(p))
}

/// One detected nondeterminism source site inside a fn body.
#[derive(Clone, Debug)]
struct SourceSite {
    /// Code index to anchor a diagnostic at.
    ci: usize,
    /// Taint kind (member of [`KINDS`]).
    kind: &'static str,
    /// Human description of the read (`Instant::now()`, …).
    what: String,
}

/// Why a def is tainted with one kind: either a direct source in its
/// own body (`via: None`) or a resolved call to a tainted def.
#[derive(Clone, Debug)]
struct Origin {
    /// Next hop toward the source (callee def id), `None` at the source.
    via: Option<usize>,
    /// File index of the anchoring site (source read or call site).
    file: usize,
    /// Code index of the anchoring site.
    ci: usize,
    /// Source description (filled on the terminal entry).
    what: String,
}

/// The computed source/sink/propagation state the findings pass reads.
#[derive(Debug)]
struct TaintGraph {
    /// `(def, kind)` → how the taint got there.
    tainted: BTreeMap<(usize, &'static str), Origin>,
    /// Sink defs with a description of their obligation.
    sinks: BTreeMap<usize, String>,
    /// Sanctioned source sites (justified allows), for the audit trail:
    /// `(file, ci, kind, what, justification)`.
    sanctioned: Vec<(usize, usize, &'static str, String, String)>,
    /// Allow markers for `taint` with no justification: `(file, ci)`.
    unjustified: Vec<(usize, usize)>,
    /// Hash-container iteration sites no order sink canonicalizes, in
    /// every library file: `(file, ci)`. Reported even when they reach
    /// no sink.
    hash_sites: Vec<(usize, usize)>,
}

/// Run the taint rule over the workspace (no-op unless enabled).
pub fn check_workspace(
    ws: &Workspace,
    enabled: &BTreeSet<&'static str>,
    out: &mut Vec<Diagnostic>,
) {
    if !enabled.contains("taint") {
        return;
    }
    TaintGraph::compute(ws).findings(ws, out);
}

impl TaintGraph {
    /// Build the full source→sink taint state for the workspace.
    fn compute(ws: &Workspace) -> TaintGraph {
        let resolved_names = resolved_name_tokens(ws);
        // Per-file hash-container names, over every library file: the
        // site scan covers the exempt crates too.
        let hash_names: Vec<BTreeSet<&str>> = ws
            .files
            .iter()
            .map(|f| {
                if rules::is_library_src(&f.rel) {
                    collect_hash_names(f)
                } else {
                    BTreeSet::new()
                }
            })
            .collect();
        let mut g = TaintGraph {
            tainted: BTreeMap::new(),
            sinks: BTreeMap::new(),
            sanctioned: Vec::new(),
            unjustified: Vec::new(),
            hash_sites: ws
                .files
                .iter()
                .zip(&hash_names)
                .enumerate()
                .flat_map(|(fi, (f, names))| {
                    hash_iter_sites(f, names)
                        .into_iter()
                        .map(move |ci| (fi, ci))
                })
                .collect(),
        };

        // 1. Direct sources, minus sanctioned sites.
        for (id, d) in ws.defs.iter().enumerate() {
            if d.in_test || !in_scope(&ws.files[d.file].rel) {
                continue;
            }
            let f = &ws.files[d.file];
            for site in direct_sources(ws, id, &hash_names[d.file], &resolved_names) {
                let (line, _) = f.cpos(site.ci);
                match f.allow_justification(line, "taint") {
                    Some(just) if !just.is_empty() => {
                        g.sanctioned.push((
                            d.file,
                            site.ci,
                            site.kind,
                            site.what,
                            just.to_string(),
                        ));
                    }
                    Some(_) => g.unjustified.push((d.file, site.ci)),
                    None => {
                        g.tainted.entry((id, site.kind)).or_insert(Origin {
                            via: None,
                            file: d.file,
                            ci: site.ci,
                            what: site.what,
                        });
                    }
                }
            }
        }

        // 2. Backward closure over resolved edges, per kind, killing
        // order taint at sanitizing statements and any taint at a
        // justified call-site sanction.
        loop {
            let mut grew = false;
            for (id, d) in ws.defs.iter().enumerate() {
                if d.in_test {
                    continue;
                }
                let f = &ws.files[d.file];
                for &kind in KINDS {
                    if g.tainted.contains_key(&(id, kind)) {
                        continue;
                    }
                    let hop = ws.calls_of(id).iter().find_map(|&si| {
                        let c = &ws.calls[si];
                        let Callee::Resolved(t) = c.callee else {
                            return None;
                        };
                        if !g.tainted.contains_key(&(t, kind)) {
                            return None;
                        }
                        if edge_killed(f, c.ci, kind) {
                            return None;
                        }
                        Some((si, t))
                    });
                    if let Some((si, t)) = hop {
                        let c = &ws.calls[si];
                        g.tainted.insert(
                            (id, kind),
                            Origin {
                                via: Some(t),
                                file: c.file,
                                ci: c.ci,
                                what: String::new(),
                            },
                        );
                        grew = true;
                    }
                }
            }
            if !grew {
                break;
            }
        }

        // 3. Sinks: deterministic-output returners (through the
        // struct-embedding closure) plus checkpoint wire writers.
        let sink_types = ws.embedding_closure(SINK_TYPE_SEEDS);
        for (id, d) in ws.defs.iter().enumerate() {
            let rel = &ws.files[d.file].rel;
            if d.in_test || !in_scope(rel) {
                continue;
            }
            if let Some(t) = returned_sink_type(ws, id, &sink_types) {
                g.sinks.insert(id, format!("returns `{t}`"));
            } else if is_wire_writer(rel, &d.name) {
                g.sinks
                    .insert(id, "writes the checkpoint wire format".to_string());
            }
        }
        g
    }

    /// Emit the rule's diagnostics: unjustified sanctions, sanctioned
    /// sources (suppressed, for the audit trail), and source→sink flows.
    fn findings(&self, ws: &Workspace, out: &mut Vec<Diagnostic>) {
        // Sites already holding a finding: one finding per site.
        let mut anchored: BTreeSet<(usize, usize)> = BTreeSet::new();
        for &(fi, ci) in &self.unjustified {
            anchored.insert((fi, ci));
            emit_taint(ws, fi, ci, UNJUSTIFIED_ALLOW.to_string(), false, out);
        }
        for (fi, ci, kind, what, just) in &self.sanctioned {
            anchored.insert((*fi, *ci));
            emit_taint(ws, *fi, *ci, sanctioned(kind, what, just), true, out);
        }
        for (&id, desc) in &self.sinks {
            for &kind in KINDS {
                let Some(origin) = self.tainted.get(&(id, kind)) else {
                    continue;
                };
                let (path, what, src_file, src_ci) = self.witness(ws, id, kind);
                let f = &ws.files[src_file];
                let (line, _) = f.cpos(src_ci);
                let src_at = format!("{}:{line}", f.rel);
                let remedy = if is_order_kind(kind) {
                    "canonicalize the flow (sort/BTree collect or a commutative merge)"
                } else {
                    "derive the value from run inputs"
                };
                let message = if origin.via.is_none() {
                    format!(
                        "`{}` {desc} but reads {what} ({kind} nondeterminism) at \
                         {src_at}; {remedy} or sanction the source with \
                         `// xtask-allow: taint -- <justification>`",
                        ws.defs[id].name
                    )
                } else {
                    format!(
                        "`{}` {desc} but is reached by {what} ({kind} nondeterminism): \
                         path {path}; source at {src_at}; {remedy} or sanction the \
                         source with `// xtask-allow: taint -- <justification>`",
                        ws.defs[id].name
                    )
                };
                // Sanctioned sites never reach this point: a justified
                // allow suppresses seeding (sources) or kills the hop
                // (propagation), so every flow finding is active.
                anchored.insert((origin.file, origin.ci));
                emit_taint(ws, origin.file, origin.ci, message, false, out);
            }
        }
        for &(fi, ci) in &self.hash_sites {
            if anchored.contains(&(fi, ci)) {
                continue;
            }
            let f = &ws.files[fi];
            let (message, allowed) = match f.allow_justification(f.cpos(ci).0, "taint") {
                Some(just) if !just.is_empty() => (sanctioned("hash-order", HASH_ITER, just), true),
                Some(_) => (UNJUSTIFIED_ALLOW.to_string(), false),
                None => (
                    format!(
                        "{}HashMap/HashSet iteration order is nondeterministic and can \
                         leak into scores, output, or Recorder snapshots; collect into a \
                         BTreeMap/BTreeSet, sort the result, or sanction the site with \
                         `// xtask-allow: taint -- <justification>`",
                        f.enclosing_fn(ci)
                            .map_or_else(String::new, |name| format!("in `{name}`: "))
                    ),
                    false,
                ),
            };
            emit_taint(ws, fi, ci, message, allowed, out);
        }
    }

    /// Follow `via` hops from `id` down to the source: returns the
    /// rendered `a -> b -> c` path, the source description, and the
    /// source site `(file, ci)`.
    fn witness(
        &self,
        ws: &Workspace,
        id: usize,
        kind: &'static str,
    ) -> (String, String, usize, usize) {
        let mut names = vec![ws.defs[id].name.clone()];
        let mut cur = id;
        let mut guard = 0;
        while let Some(origin) = self.tainted.get(&(cur, kind)) {
            match origin.via {
                Some(next) => {
                    names.push(ws.defs[next].name.clone());
                    cur = next;
                }
                None => {
                    return (
                        names.join(" -> "),
                        origin.what.clone(),
                        origin.file,
                        origin.ci,
                    )
                }
            }
            guard += 1;
            if guard > 64 {
                break;
            }
        }
        let d = &ws.defs[cur];
        (
            names.join(" -> "),
            "a nondeterminism source".to_string(),
            d.file,
            ws.span_of(cur).name_ci,
        )
    }
}

/// The finding a bare `xtask-allow: taint` marker is.
const UNJUSTIFIED_ALLOW: &str = "`xtask-allow: taint` requires a written justification; append \
                                 `-- <why this flow cannot change selection output>` to the marker";

/// The audit message of a site a justified allow sanctions.
fn sanctioned(kind: &str, what: &str, just: &str) -> String {
    format!("sanctioned nondeterminism source ({kind}: {what}) -- {just}")
}

/// Record a taint finding with an explicit suppression decision (the
/// justification policy means a bare allow must NOT suppress).
fn emit_taint(
    ws: &Workspace,
    fi: usize,
    ci: usize,
    message: String,
    allowed: bool,
    out: &mut Vec<Diagnostic>,
) {
    let mut d = ws.files[fi].diagnostic(ci, "taint", message);
    d.allowed = allowed;
    out.push(d);
}

/// Code indices of call-name tokens with a **resolved** workspace
/// target, per file — used to tell `guard.lock()` on a raw `Mutex`
/// (source) from a call to a workspace method that happens to be named
/// `lock` (covered interprocedurally instead).
fn resolved_name_tokens(ws: &Workspace) -> BTreeSet<(usize, usize)> {
    ws.calls
        .iter()
        .filter(|c| matches!(c.callee, Callee::Resolved(_)))
        .map(|c| (c.file, c.ci))
        .collect()
}

/// Does the statement holding `ci` canonicalize away order taint, or is
/// the whole hop sanctioned by a justified allow?
fn edge_killed(f: &SourceFile, ci: usize, kind: &'static str) -> bool {
    let (line, _) = f.cpos(ci);
    if f.allow_justification(line, "taint")
        .is_some_and(|j| !j.is_empty())
    {
        return true;
    }
    order_sanitized(f, ci, kind)
}

/// The statement-level canonicalization check alone (no allow lookup):
/// `direct_sources` uses this so a justified allow still surfaces the
/// site in the sanctioned audit trail instead of silently erasing it.
fn order_sanitized(f: &SourceFile, ci: usize, kind: &'static str) -> bool {
    is_order_kind(kind) && canonicalized(f, ci)
}

/// Does the statement holding `ci` contain an [`ORDER_SINKS`] or
/// [`ORDER_SANITIZER_EXTRA`] token, bind a collection the next statement
/// sorts, or form the argument list of a commutative fold
/// (`acc.merge_all(m.values())`)?
fn canonicalized(f: &SourceFile, ci: usize) -> bool {
    let range = f.stmt_range(ci);
    let is_fold =
        |i: usize| f.ckind(i) == TokenKind::Ident && ORDER_SANITIZER_EXTRA.contains(&f.ctext(i));
    f.range_any(range, |i| {
        is_fold(i) || (f.ckind(i) == TokenKind::Ident && ORDER_SINKS.contains(&f.ctext(i)))
    }) || let_followed_by_sort(f, range)
        || (range.0 >= 2 && f.is_punct(range.0 - 1, "(") && is_fold(range.0 - 2))
}

/// Scan a def's own body for nondeterminism reads.
fn direct_sources(
    ws: &Workspace,
    id: usize,
    hash_names: &BTreeSet<&str>,
    resolved_names: &BTreeSet<(usize, usize)>,
) -> Vec<SourceSite> {
    let d = &ws.defs[id];
    let f = &ws.files[d.file];
    let mut out = Vec::new();
    let mut flagged_stmts: BTreeSet<usize> = BTreeSet::new();

    for ci in ws.own_body(id) {
        // Clock reads: `Instant::now()`, `SystemTime::now()`, and the
        // sanctioned wrapper `catapult_obs::now()` (the wrapper is how
        // timers and the progress meter read time; the *read* is still a
        // source).
        if f.ckind(ci) == TokenKind::Ident
            && f.is_punct(ci + 1, "::")
            && f.is_ident(ci + 2, "now")
            && f.is_punct(ci + 3, "(")
        {
            let base = f.ctext(ci);
            if matches!(base, "Instant" | "SystemTime" | "catapult_obs") {
                out.push(SourceSite {
                    ci,
                    kind: "time",
                    what: format!("{base}::now()"),
                });
                continue;
            }
        }
        // Thread topology.
        if f.ckind(ci) == TokenKind::Ident {
            let name = f.ctext(ci);
            if matches!(
                name,
                "available_parallelism" | "current_thread_index" | "ThreadId"
            ) {
                out.push(SourceSite {
                    ci,
                    kind: "thread",
                    what: format!("`{name}`"),
                });
                continue;
            }
            if f.is_punct(ci + 1, "::") && f.is_ident(ci, "thread") && f.is_ident(ci + 2, "current")
            {
                out.push(SourceSite {
                    ci,
                    kind: "thread",
                    what: "`thread::current`".to_string(),
                });
                continue;
            }
        }
        // Environment reads: `env::var("…")` / `env::var_os`.
        if (f.is_ident(ci, "var") || f.is_ident(ci, "var_os"))
            && ci >= 2
            && f.is_punct(ci - 1, "::")
            && f.is_ident(ci - 2, "env")
            && f.is_punct(ci + 1, "(")
        {
            let arg = if ci + 2 < f.n_code() && f.ckind(ci + 2) == TokenKind::StrLit {
                f.ctext(ci + 2).to_string()
            } else {
                "…".to_string()
            };
            out.push(SourceSite {
                ci,
                kind: "env",
                what: format!("env::{}({arg})", f.ctext(ci)),
            });
            continue;
        }
        // RNG not derived from the run seed (`seed_from_u64`/`from_seed`
        // constructions are deterministic and deliberately not listed).
        if f.ckind(ci) == TokenKind::Ident {
            let name = f.ctext(ci);
            if matches!(name, "thread_rng" | "from_entropy" | "OsRng") {
                out.push(SourceSite {
                    ci,
                    kind: "rng",
                    what: format!("`{name}`"),
                });
                continue;
            }
            if name == "RandomState" {
                out.push(SourceSite {
                    ci,
                    kind: "hash-order",
                    what: "`RandomState` (randomized hashing)".to_string(),
                });
                continue;
            }
        }
        // Hash-container iteration, locally sanitized by an order sink
        // in the statement.
        if let Some(anchor) = hash_iter_at(f, ci, hash_names) {
            let range = f.stmt_range(ci);
            if flagged_stmts.insert(range.0) && !order_sanitized(f, anchor, "hash-order") {
                out.push(SourceSite {
                    ci: anchor,
                    kind: "hash-order",
                    what: HASH_ITER.to_string(),
                });
            }
            continue;
        }
        // Raw `Mutex::lock` acquisition order. A `.lock()` resolving to
        // a workspace method is not a raw acquisition — if that method
        // is itself tainted, propagation covers it.
        if f.is_punct(ci, ".")
            && (f.is_ident(ci + 1, "lock") || f.is_ident(ci + 1, "try_lock"))
            && f.is_punct(ci + 2, "(")
            && !resolved_names.contains(&(d.file, ci + 1))
        {
            let range = f.stmt_range(ci);
            if flagged_stmts.insert(range.0) && !order_sanitized(f, ci + 1, "lock-order") {
                out.push(SourceSite {
                    ci: ci + 1,
                    kind: "lock-order",
                    what: "Mutex-guarded accumulation order".to_string(),
                });
            }
        }
    }
    out
}

// ---- hash-container iteration ------------------------------------------

/// What a hash-iteration source reads.
const HASH_ITER: &str = "HashMap/HashSet iteration";

/// Iterator-producing methods on hash containers.
const HASH_ITER_METHODS: &[&str] = &[
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

/// The hash-container iteration starting at code token `ci`, if any: a
/// `name.iter()`-style chain (anchored at the method) or a
/// `for x in name` loop (anchored at the `for`).
fn hash_iter_at(f: &SourceFile, ci: usize, hash_names: &BTreeSet<&str>) -> Option<usize> {
    let is_hash = |i: usize| f.ckind(i) == TokenKind::Ident && hash_names.contains(f.ctext(i));
    if is_hash(ci)
        && f.is_punct(ci + 1, ".")
        && ci + 2 < f.n_code()
        && f.ckind(ci + 2) == TokenKind::Ident
        && HASH_ITER_METHODS.contains(&f.ctext(ci + 2))
        && f.is_punct(ci + 3, "(")
    {
        return Some(ci + 2);
    }
    if !f.is_ident(ci, "for") {
        return None;
    }
    let (s, e) = f.stmt_range(ci);
    let in_at = (s..=e).find(|&i| f.is_ident(i, "in"))?;
    f.range_any((in_at + 1, e), is_hash).then_some(ci)
}

/// The hash-container iterations of a file's non-test code that no
/// [`ORDER_SINKS`] token, commutative fold ([`ORDER_SANITIZER_EXTRA`]) or
/// collect-then-sort canonicalizes, one per statement: the anchors of the
/// sites reported even without a sink. These are the sanitizers the flow
/// sources honor, so a site is silent exactly when its flow would be.
fn hash_iter_sites(f: &SourceFile, hash_names: &BTreeSet<&str>) -> Vec<usize> {
    let mut stmts: BTreeSet<usize> = BTreeSet::new();
    let mut out = Vec::new();
    if hash_names.is_empty() {
        return out;
    }
    for ci in (0..f.n_code()).filter(|&ci| !f.in_test(ci)) {
        let Some(anchor) = hash_iter_at(f, ci, hash_names) else {
            continue;
        };
        if stmts.insert(f.stmt_range(ci).0) && !canonicalized(f, ci) {
            out.push(anchor);
        }
    }
    out
}

/// Names known to hold a hash container in this file: `let` bindings
/// whose statement mentions `HashMap`/`HashSet`, struct fields and fn
/// params typed as one, and `let` bindings calling a same-file fn that
/// returns one.
fn collect_hash_names(f: &SourceFile) -> BTreeSet<&str> {
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
fn let_followed_by_sort(f: &SourceFile, (s, e): (usize, usize)) -> bool {
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

/// The sink type a def's declared return type mentions, if any.
fn returned_sink_type(ws: &Workspace, id: usize, sinks: &BTreeSet<String>) -> Option<String> {
    let f = &ws.files[ws.defs[id].file];
    let (s, e) = ws.sig_range(id);
    let arrow = (s..=e).find(|&ci| f.is_punct(ci, "->"))?;
    (arrow..=e)
        .find(|&ci| f.ckind(ci) == TokenKind::Ident && sinks.contains(f.ctext(ci)))
        .map(|ci| f.ctext(ci).to_string())
}

/// Checkpoint wire writers: encode/write entry points in the wire codec
/// or a crate's `ckpt_io` bridge.
fn is_wire_writer(rel: &str, name: &str) -> bool {
    (rel.ends_with("/ckpt_io.rs") || rel.ends_with("/wire.rs"))
        && (name.starts_with("encode") || name.starts_with("write"))
}
