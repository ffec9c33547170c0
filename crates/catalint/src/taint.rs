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
//! **sanitizers** (sort/BTree canonicalization, `median_of_sorted`,
//! commutative `merge`/`merge_all` folds), with taint propagated over
//! the **resolved** call-graph edges of [`crate::symbols::Workspace`] by
//! the same fixpoint machinery as the budget-threading obligation.
//!
//! The lattice is the powerset of [`KINDS`]; joins are unions. Order
//! kinds (`hash-order`, `lock-order`) are killed by an order sanitizer
//! on the propagating statement; value kinds (`time`, `thread`, `env`,
//! `rng`) survive any canonicalization and can only be sanctioned at
//! their source site with `// xtask-allow: taint -- <justification>` —
//! the justification is **mandatory**, a bare marker is itself an
//! active finding. Every finding carries a source→…→sink witness path.
//!
//! Approximation contract (same as `xrules`): only resolved edges
//! propagate, so the call graph's approximations cause false negatives,
//! never mis-attributed flows.

use crate::diag::Diagnostic;
use crate::lexer::TokenKind;
use crate::rules::{self, RuleInfo};
use crate::scan::SourceFile;
use crate::symbols::{Callee, Workspace};
use catapult_obs::json::Value;
use std::collections::{BTreeMap, BTreeSet};

/// The taint rule's registry entry (`--rule taint`, `xtask-allow: taint`).
pub const TAINT_RULES: &[RuleInfo] = &[RuleInfo {
    name: "taint",
    summary: "nondeterminism sources must not flow into deterministic outputs",
}];

/// Look up the taint rule by name.
#[must_use]
pub fn taint_rule_named(name: &str) -> Option<&'static RuleInfo> {
    TAINT_RULES.iter().find(|r| r.name == name)
}

/// Schema version of the `--taint-graph` JSON export.
pub const TAINT_GRAPH_SCHEMA_VERSION: u64 = 1;

/// Taint kinds, in report order. `hash-order` and `lock-order` are the
/// *order* kinds an order sanitizer can kill; the rest are value kinds.
pub const KINDS: &[&str] = &["time", "thread", "env", "rng", "hash-order", "lock-order"];

/// Is this an order kind (killable by sort/BTree/merge canonicalization)?
fn is_order_kind(kind: &str) -> bool {
    matches!(kind, "hash-order" | "lock-order")
}

/// Deterministic-output type names seeding the sink closure. Structs
/// transitively embedding one of these are sinks too (the struct-field
/// fixpoint below), so a helper returning `Bundle { sel: SelectionResult }`
/// inherits the obligation.
const SINK_TYPE_SEEDS: &[&str] = &["SelectionResult", "PipelineReport", "RunManifest"];

/// Statement tokens that canonicalize away *order* nondeterminism before
/// it can reach a sink: the [`rules::ORDER_SINKS`] family plus the
/// commutative+associative fold conveniences.
const ORDER_SANITIZER_EXTRA: &[&str] = &["median_of_sorted", "merge", "merge_all"];

/// Modules outside the determinism contract, never scanned for sources
/// or sinks: the observability crate (its recorder is proven
/// output-neutral and it *owns* the sanctioned clock), the executor
/// shim (thread topology is its job), the bench harness (time-valued by
/// design; the bench-diff deterministic-field gate covers its
/// manifests), the analyzer and driver themselves, and the
/// fault-injection plans (test-only by feature gate).
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

/// The computed source/sink/propagation state, reused by the findings
/// pass and the `--taint-graph` exports.
#[derive(Debug)]
pub struct TaintGraph {
    /// Per-def direct source sites (in-scope, unsanctioned).
    sources: BTreeMap<usize, Vec<SourceSite>>,
    /// `(def, kind)` → how the taint got there.
    tainted: BTreeMap<(usize, &'static str), Origin>,
    /// Sink defs with a description of their obligation.
    sinks: BTreeMap<usize, String>,
    /// Sanctioned source sites (justified allows), for the audit trail:
    /// `(file, ci, kind, what, justification)`.
    sanctioned: Vec<(usize, usize, &'static str, String, String)>,
    /// Allow markers for `taint` with no justification: `(file, ci)`.
    unjustified: Vec<(usize, usize)>,
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
    #[must_use]
    pub fn compute(ws: &Workspace) -> TaintGraph {
        let resolved_names = resolved_name_tokens(ws);
        let mut g = TaintGraph {
            sources: BTreeMap::new(),
            tainted: BTreeMap::new(),
            sinks: BTreeMap::new(),
            sanctioned: Vec::new(),
            unjustified: Vec::new(),
        };

        // Per-file hash-container names (same inference as the per-file
        // hash-iter-order rule).
        let hash_names: Vec<BTreeSet<&str>> = ws
            .files
            .iter()
            .map(|f| {
                if in_scope(&f.rel) {
                    rules::collect_hash_names(f)
                } else {
                    BTreeSet::new()
                }
            })
            .collect();

        // 1. Direct sources, minus sanctioned sites.
        for (id, d) in ws.defs.iter().enumerate() {
            if d.in_test || !in_scope(&ws.files[d.file].rel) {
                continue;
            }
            let f = &ws.files[d.file];
            let mut kept = Vec::new();
            for site in direct_sources(ws, id, &hash_names[d.file], &resolved_names) {
                let (line, _) = f.cpos(site.ci);
                match f.allow_justification(line, "taint") {
                    Some(just) if !just.is_empty() => {
                        g.sanctioned.push((
                            d.file,
                            site.ci,
                            site.kind,
                            site.what.clone(),
                            just.to_string(),
                        ));
                    }
                    Some(_) => g.unjustified.push((d.file, site.ci)),
                    None => kept.push(site),
                }
            }
            if !kept.is_empty() {
                for site in &kept {
                    g.tainted.entry((id, site.kind)).or_insert(Origin {
                        via: None,
                        file: d.file,
                        ci: site.ci,
                        what: site.what.clone(),
                    });
                }
                g.sources.insert(id, kept);
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
        let sink_types = sink_type_closure(ws);
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
        for &(fi, ci) in &self.unjustified {
            emit_taint(
                ws,
                fi,
                ci,
                "`xtask-allow: taint` requires a written justification; append \
                 `-- <why this flow cannot change selection output>` to the marker"
                    .to_string(),
                false,
                out,
            );
        }
        for (fi, ci, kind, what, just) in &self.sanctioned {
            emit_taint(
                ws,
                *fi,
                *ci,
                format!("sanctioned nondeterminism source ({kind}: {what}) -- {just}"),
                true,
                out,
            );
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
                emit_taint(ws, origin.file, origin.ci, message, false, out);
            }
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

    /// The `--taint-graph` JSON export: sources, sinks, and the tainted
    /// defs with their next hops. Byte-stable across runs.
    #[must_use]
    pub fn to_json(&self, ws: &Workspace) -> Value {
        let def_at = |id: usize| {
            let d = &ws.defs[id];
            let mut v = Value::object();
            v.set("fn", ws.label(id))
                .set("file", ws.files[d.file].rel.as_str());
            v
        };
        let mut sources = Value::array();
        for (&id, sites) in &self.sources {
            for s in sites {
                let f = &ws.files[ws.defs[id].file];
                let (line, _) = f.cpos(s.ci);
                let mut v = def_at(id);
                v.set("line", line)
                    .set("kind", s.kind)
                    .set("what", s.what.as_str());
                sources.push(v);
            }
        }
        let mut sanctioned = Value::array();
        for (fi, ci, kind, what, just) in &self.sanctioned {
            let f = &ws.files[*fi];
            let (line, _) = f.cpos(*ci);
            let mut v = Value::object();
            v.set("file", f.rel.as_str())
                .set("line", line)
                .set("kind", *kind)
                .set("what", what.as_str())
                .set("justification", just.as_str());
            sanctioned.push(v);
        }
        let mut sinks = Value::array();
        for (&id, desc) in &self.sinks {
            let mut v = def_at(id);
            v.set("obligation", desc.as_str());
            sinks.push(v);
        }
        let mut tainted = Value::array();
        for ((id, kind), origin) in &self.tainted {
            let mut v = def_at(*id);
            v.set("kind", *kind);
            match origin.via {
                Some(next) => v.set("via", ws.label(next)),
                None => v.set("via", Value::Null),
            };
            tainted.push(v);
        }
        let mut v = Value::object();
        v.set("schema_version", TAINT_GRAPH_SCHEMA_VERSION)
            .set("tool", "catalint")
            .set("kinds", {
                let mut a = Value::array();
                for k in KINDS {
                    a.push(*k);
                }
                a
            })
            .set("sources", sources)
            .set("sanctioned", sanctioned)
            .set("sinks", sinks)
            .set("tainted", tainted);
        v
    }

    /// The `--taint-graph-dot` Graphviz export: tainted defs as nodes
    /// (sources shaded, sinks boxed), propagation hops as edges.
    #[must_use]
    pub fn to_dot(&self, ws: &Workspace) -> String {
        use std::fmt::Write as _;
        let mut s =
            String::from("digraph taint {\n  rankdir=LR;\n  node [fontname=\"monospace\"];\n");
        let mut nodes: BTreeSet<usize> = BTreeSet::new();
        for &(id, _) in self.tainted.keys() {
            nodes.insert(id);
        }
        for &id in self.sinks.keys() {
            nodes.insert(id);
        }
        for &id in &nodes {
            let mut attrs = Vec::new();
            if self.sources.contains_key(&id) {
                attrs.push("style=filled, fillcolor=lightcoral");
            }
            if self.sinks.contains_key(&id) {
                attrs.push("shape=box");
            }
            let _ = writeln!(s, "  \"{}\" [{}];", ws.label(id), attrs.join(", "));
        }
        for ((id, kind), origin) in &self.tainted {
            if let Some(next) = origin.via {
                let _ = writeln!(
                    s,
                    "  \"{}\" -> \"{}\" [label=\"{kind}\"];",
                    ws.label(*id),
                    ws.label(next)
                );
            }
        }
        s.push_str("}\n");
        s
    }
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
    if !is_order_kind(kind) {
        return false;
    }
    let range = f.stmt_range(ci);
    f.range_any(range, |i| {
        f.ckind(i) == TokenKind::Ident
            && (rules::ORDER_SINKS.contains(&f.ctext(i))
                || ORDER_SANITIZER_EXTRA.contains(&f.ctext(i)))
    }) || rules::let_followed_by_sort(f, range)
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
        // deadline plumbing reads time; the *read* is still a source).
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
        // Hash-container iteration (same patterns as `hash-iter-order`),
        // locally sanitized by an order sink in the statement.
        let chain = f.ckind(ci) == TokenKind::Ident
            && hash_names.contains(f.ctext(ci))
            && f.is_punct(ci + 1, ".")
            && ci + 2 < f.n_code()
            && f.ckind(ci + 2) == TokenKind::Ident
            && rules::HASH_ITER_METHODS.contains(&f.ctext(ci + 2))
            && f.is_punct(ci + 3, "(");
        let direct_for = f.is_ident(ci, "for") && {
            let (s, e) = f.stmt_range(ci);
            let in_at = (s..=e).find(|&i| f.is_ident(i, "in"));
            in_at.is_some_and(|at| {
                f.range_any((at + 1, e), |i| {
                    f.ckind(i) == TokenKind::Ident && hash_names.contains(f.ctext(i))
                })
            })
        };
        if chain || direct_for {
            let anchor = if chain { ci + 2 } else { ci };
            let range = f.stmt_range(ci);
            if flagged_stmts.insert(range.0) && !order_sanitized(f, anchor, "hash-order") {
                out.push(SourceSite {
                    ci: anchor,
                    kind: "hash-order",
                    what: "HashMap/HashSet iteration".to_string(),
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

/// Sink type names: the seeds plus every struct transitively embedding
/// one (the budget-threading struct-field fixpoint).
fn sink_type_closure(ws: &Workspace) -> BTreeSet<String> {
    let mut names: BTreeSet<String> = SINK_TYPE_SEEDS.iter().map(|s| (*s).to_string()).collect();
    loop {
        let mut grew = false;
        for s in &ws.structs {
            if names.contains(&s.name) {
                continue;
            }
            let embeds = s
                .fields
                .iter()
                .any(|fd| fd.type_idents.iter().any(|t| names.contains(t)));
            if embeds {
                names.insert(s.name.clone());
                grew = true;
            }
        }
        if !grew {
            return names;
        }
    }
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
