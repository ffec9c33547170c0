//! Interprocedural rules running on the workspace call graph.
//!
//! These rules see what the per-file pass in [`crate::rules`] cannot: a
//! helper that drops the `SearchBudget` on its way into a kernel, a
//! kernel fn that reaches `unwrap` through a helper chain, a
//! `Completeness` tag discarded one call away from the kernel, and lock
//! acquisitions whose ordering only conflicts across function
//! boundaries. Each is also the single rule for its hazard's local
//! shape: `panic-reachability` reports a panic written directly in a
//! kernel file, and `lock-order-xfn` a fn body that takes two locks.
//!
//! `budget-threading` also guards the kernels' unbudgeted conveniences
//! (`iso::contains`, `iso::are_isomorphic`, `iso::embeddings`): they pin
//! a budget internally and drop the tag, so a pipeline call to one fires
//! whether it is qualified or imported with `use`.
//!
//! All four rules consume the approximate call graph built by
//! [`crate::symbols::Workspace`] and restrict themselves to **resolved**
//! edges: an unresolved or ambiguous call never produces a finding, so
//! the graph's approximations can cause false negatives but not false
//! positives from mis-attributed edges. Every finding anchors at a call
//! site, a lock acquisition or a panic written in a kernel file (never
//! at a definition reached transitively), names the path in its
//! message, and honors the same `xtask-allow` escape hatch as the file
//! rules.

use crate::diag::Diagnostic;
use crate::lexer::TokenKind;
use crate::scan::SourceFile;
use crate::symbols::{Callee, Workspace};
use std::collections::{BTreeMap, BTreeSet};

/// Files holding the NP-hard search kernels and the greedy loop that
/// drives them: `panic-reachability`'s scope.
const KERNEL_FILES: &[&str] = &[
    "crates/graph/src/iso.rs",
    "crates/graph/src/mcs.rs",
    "crates/graph/src/ged.rs",
    "crates/core/src/walk.rs",
    "crates/core/src/select.rs",
];

/// Pipeline directories: their kernel calls must thread a budget
/// (`budget-threading`) and keep every `Completeness` tag
/// (`completeness-flow`). `crates/graph` defines the kernels and their
/// unbudgeted conveniences, so it is outside.
const PIPELINE_DIRS: &[&str] = &[
    "crates/cluster/src/",
    "crates/core/src/",
    "crates/csg/src/",
    "crates/eval/src/",
    "crates/mining/src/",
    "src/",
];

/// The NP-hard kernel entry files (subset of [`KERNEL_FILES`] holding
/// the budgeted search routines).
const BUDGET_KERNEL_FILES: &[&str] = &[
    "crates/graph/src/iso.rs",
    "crates/graph/src/mcs.rs",
    "crates/graph/src/ged.rs",
];

/// Run every enabled interprocedural rule over the workspace.
pub fn check_workspace(
    ws: &Workspace,
    enabled: &BTreeSet<&'static str>,
    out: &mut Vec<Diagnostic>,
) {
    if enabled.contains("budget-threading") {
        budget_threading(ws, out);
    }
    if enabled.contains("panic-reachability") {
        panic_reachability(ws, out);
    }
    if enabled.contains("completeness-flow") {
        completeness_flow(ws, out);
    }
    if enabled.contains("lock-order-xfn") {
        lock_order_xfn(ws, out);
    }
}

/// Record a finding at code token `ci` of file `fi`.
fn emit(
    ws: &Workspace,
    fi: usize,
    ci: usize,
    rule: &'static str,
    message: String,
    out: &mut Vec<Diagnostic>,
) {
    out.push(ws.files[fi].diagnostic(ci, rule, message));
}

fn in_dirs(rel: &str, dirs: &[&str]) -> bool {
    dirs.iter().any(|d| rel.starts_with(d))
}

fn rel_of(ws: &Workspace, def: usize) -> &str {
    &ws.files[ws.defs[def].file].rel
}

// ---- budget-threading --------------------------------------------------

/// Rule `budget-threading`: every call path from the pipeline crates
/// into an iso/mcs/ged kernel must pass a `SearchBudget`. Two shapes
/// fire: a call to a kernel convenience whose signature cannot accept a
/// budget at all, and a call toward a budgeted kernel from a fn that
/// neither receives nor constructs any budget-carrying value.
fn budget_threading(ws: &Workspace, out: &mut Vec<Diagnostic>) {
    // Budget-carrying types: the budget itself and every struct that
    // embeds one (configs like `McsConfig`).
    let carrying = ws.embedding_closure(&["SearchBudget", "BudgetMeter"]);
    // A method on a budget-carrying struct reaches its budget through the
    // receiver (`self.cfg.search`), so it carries too.
    let carries: Vec<bool> = (0..ws.defs.len())
        .map(|id| {
            let d = &ws.defs[id];
            ws.sig_mentions(id, &carrying)
                || ws.body_mentions(id, &carrying)
                || (d.has_self && d.receiver.as_ref().is_some_and(|r| carrying.contains(r)))
        })
        .collect();

    // Kernel partition: budgeted entries vs bare conveniences (free pub
    // fns only — accessors keep their receiver). "Bare" requires actually
    // wrapping a budgeted search behind a pinned internal budget:
    // polynomial helpers like `ged_lower_bound` never reach one and are
    // fine to call from anywhere.
    let mut budgeted: BTreeMap<usize, Option<usize>> = BTreeMap::new(); // def → next hop
    for (id, d) in ws.defs.iter().enumerate() {
        if d.in_test || !BUDGET_KERNEL_FILES.contains(&rel_of(ws, id)) {
            continue;
        }
        if ws.sig_mentions(id, &carrying) {
            budgeted.insert(id, None);
        }
    }
    let mut wraps: BTreeSet<usize> = BTreeSet::new(); // kernel defs reaching a budgeted def
    loop {
        let mut grew = false;
        for (id, d) in ws.defs.iter().enumerate() {
            if d.in_test
                || wraps.contains(&id)
                || budgeted.contains_key(&id)
                || !BUDGET_KERNEL_FILES.contains(&rel_of(ws, id))
            {
                continue;
            }
            let hits = ws.calls_of(id).iter().any(|&si| match ws.calls[si].callee {
                Callee::Resolved(t) => budgeted.contains_key(&t) || wraps.contains(&t),
                _ => false,
            });
            if hits {
                wraps.insert(id);
                grew = true;
            }
        }
        if !grew {
            break;
        }
    }
    let bare: BTreeSet<usize> = wraps
        .iter()
        .copied()
        .filter(|&id| {
            let d = &ws.defs[id];
            d.is_pub && d.receiver.is_none() && d.parent.is_none()
        })
        .collect();

    // Fixpoint: a pipeline fn that reaches a budgeted kernel without
    // carrying a budget passes the obligation up to its callers.
    loop {
        let mut grew = false;
        for (id, d) in ws.defs.iter().enumerate() {
            if d.in_test
                || carries[id]
                || budgeted.contains_key(&id)
                || !in_dirs(rel_of(ws, id), PIPELINE_DIRS)
            {
                continue;
            }
            let hop = ws.calls_of(id).iter().find_map(|&si| {
                let c = &ws.calls[si];
                match c.callee {
                    Callee::Resolved(t) if budgeted.contains_key(&t) => Some(t),
                    _ => None,
                }
            });
            if let Some(t) = hop {
                budgeted.insert(id, Some(t));
                grew = true;
            }
        }
        if !grew {
            break;
        }
    }

    for (id, d) in ws.defs.iter().enumerate() {
        if d.in_test || !in_dirs(rel_of(ws, id), PIPELINE_DIRS) {
            continue;
        }
        for &si in ws.calls_of(id) {
            let c = &ws.calls[si];
            let Callee::Resolved(t) = c.callee else {
                continue;
            };
            if bare.contains(&t) {
                emit(
                    ws,
                    c.file,
                    c.ci,
                    "budget-threading",
                    format!(
                        "`{}` enters kernel `{}` which cannot accept a SearchBudget; \
                         call the budgeted/_tagged variant so the search degrades \
                         instead of running unbounded",
                        d.name,
                        ws.label(t)
                    ),
                    out,
                );
            } else if budgeted.contains_key(&t) && !carries[id] {
                let path = witness(ws, t, &budgeted);
                emit(
                    ws,
                    c.file,
                    c.ci,
                    "budget-threading",
                    format!(
                        "`{}` reaches a budgeted kernel (path: {} -> {path}) but neither \
                         receives nor constructs a SearchBudget; thread one through so \
                         callers control the node cap",
                        d.name, d.name
                    ),
                    out,
                );
            }
        }
    }
}

/// Follow next-hop links to render `a -> b -> kernel`.
fn witness(ws: &Workspace, from: usize, hops: &BTreeMap<usize, Option<usize>>) -> String {
    let mut parts = vec![ws.defs[from].name.clone()];
    let mut cur = from;
    let mut guard = 0;
    while let Some(Some(next)) = hops.get(&cur) {
        parts.push(ws.defs[*next].name.clone());
        cur = *next;
        guard += 1;
        if guard > 32 {
            break;
        }
    }
    parts.join(" -> ")
}

// ---- panic-reachability ------------------------------------------------

/// The panic a code token starts, if any: a `panic!`-family macro or an
/// `.unwrap()`/`.expect()` call.
fn panic_kind(f: &SourceFile, ci: usize) -> Option<&'static str> {
    if f.ckind(ci) == TokenKind::Ident && f.is_punct(ci + 1, "!") {
        return match f.ctext(ci) {
            "panic" => Some("panic!"),
            "unreachable" => Some("unreachable!"),
            "todo" => Some("todo!"),
            "unimplemented" => Some("unimplemented!"),
            _ => None,
        };
    }
    if f.is_punct(ci, ".") && f.is_punct(ci + 2, "(") {
        if f.is_ident(ci + 1, "unwrap") {
            return Some(".unwrap()");
        }
        if f.is_ident(ci + 1, "expect") {
            return Some(".expect()");
        }
    }
    None
}

/// Rule `panic-reachability`: a kernel file that panics outside
/// `#[cfg(test)]` — in a fn's own body, a macro body, or through a
/// same-workspace helper that (transitively) panics — aborts a whole
/// selection run.
///
/// A `// xtask-allow: panic-reachability` on a panicking line sanctions
/// that one site at its source (e.g. the deliberate, feature-gated crash
/// of the fault-injection plans) instead of forcing an annotation onto
/// every kernel call site whose closure passes through it. The site is
/// still reported, as an allowed finding, so the report lists every
/// sanctioned panic.
fn panic_reachability(ws: &Workspace, out: &mut Vec<Diagnostic>) {
    const RULE: &str = "panic-reachability";
    // Direct panics anywhere in a kernel file.
    for (fi, f) in ws.files.iter().enumerate() {
        if !KERNEL_FILES.contains(&f.rel.as_str()) {
            continue;
        }
        for ci in (0..f.n_code()).filter(|&ci| !f.in_test(ci)) {
            let Some(kind) = panic_kind(f, ci) else {
                continue;
            };
            let site = match f.enclosing_fn(ci) {
                Some(name) => format!("kernel fn `{name}` calls {kind} directly"),
                None => format!("{kind} in a kernel file outside any fn"),
            };
            let message =
                format!("{site}; return an error or degrade via the SearchBudget instead");
            emit(ws, fi, ci, RULE, message, out);
        }
    }
    // Defs that panic directly at an unsanctioned site, with the kind. A
    // sanctioned site outside a kernel file (kernel files reported every
    // site above) leaves the closure but stays in the report as allowed.
    let mut reaches: BTreeMap<usize, (Option<usize>, &'static str)> = BTreeMap::new();
    for (id, d) in ws.defs.iter().enumerate() {
        if d.in_test {
            continue;
        }
        let f = &ws.files[d.file];
        let kernel = KERNEL_FILES.contains(&f.rel.as_str());
        for ci in ws.own_body(id) {
            let Some(kind) = panic_kind(f, ci) else {
                continue;
            };
            if !f.allowed(f.cpos(ci).0, RULE) {
                reaches.entry(id).or_insert((None, kind));
            } else if !kernel {
                let message = format!(
                    "`{}` calls {kind}, sanctioned at its source, so no kernel \
                     path through it is reported",
                    d.name
                );
                emit(ws, d.file, ci, RULE, message, out);
            }
        }
    }
    // Backward closure over resolved edges.
    loop {
        let mut grew = false;
        for (id, d) in ws.defs.iter().enumerate() {
            if d.in_test || reaches.contains_key(&id) {
                continue;
            }
            let hop = ws
                .calls_of(id)
                .iter()
                .find_map(|&si| match ws.calls[si].callee {
                    Callee::Resolved(t) if reaches.contains_key(&t) => Some(t),
                    _ => None,
                });
            if let Some(t) = hop {
                let kind = reaches.get(&t).map_or("panic", |(_, k)| k);
                reaches.insert(id, (Some(t), kind));
                grew = true;
            }
        }
        if !grew {
            break;
        }
    }

    for (id, d) in ws.defs.iter().enumerate() {
        if d.in_test || !KERNEL_FILES.contains(&rel_of(ws, id)) {
            continue;
        }
        for &si in ws.calls_of(id) {
            let c = &ws.calls[si];
            let Callee::Resolved(t) = c.callee else {
                continue;
            };
            if let Some((_, kind)) = reaches.get(&t) {
                let mut path = vec![d.name.clone()];
                let mut cur = t;
                path.push(ws.defs[cur].name.clone());
                let mut guard = 0;
                while let Some((Some(next), _)) = reaches.get(&cur) {
                    path.push(ws.defs[*next].name.clone());
                    cur = *next;
                    guard += 1;
                    if guard > 32 {
                        break;
                    }
                }
                emit(
                    ws,
                    c.file,
                    c.ci,
                    RULE,
                    format!(
                        "kernel fn `{}` reaches {kind} via {}; return an error or \
                         degrade via the SearchBudget instead",
                        d.name,
                        path.join(" -> ")
                    ),
                    out,
                );
            }
        }
    }
}

// ---- completeness-flow -------------------------------------------------

/// Does the def's declared return type mention a tagged name?
fn returns_tagged(ws: &Workspace, id: usize, tagged: &BTreeSet<String>) -> bool {
    let f = &ws.files[ws.defs[id].file];
    let (s, e) = ws.sig_range(id);
    let Some(arrow) = (s..=e).find(|&ci| f.is_punct(ci, "->")) else {
        return false;
    };
    (arrow..=e).any(|ci| f.ckind(ci) == TokenKind::Ident && tagged.contains(f.ctext(ci)))
}

/// Why a call site discards the tag of its tagged result, if it does.
fn discard_reason(f: &SourceFile, ci: usize) -> Option<String> {
    let (s, e) = f.stmt_range(ci);
    let consuming = |j: usize| {
        f.ckind(j) == TokenKind::Ident && matches!(f.ctext(j), "completeness" | "is_exact")
    };
    if (s..=e).any(consuming) {
        return None; // the tag is read somewhere in the statement
    }
    if !f.is_punct(e, ";") {
        return None; // tail expression: the tag propagates to the caller
    }
    if (s..ci).any(|j| f.is_ident(j, "return")) {
        return None;
    }
    if f.is_ident(s, "let") {
        if f.is_ident(s + 1, "_") {
            return Some("the result is bound to `_`".to_string());
        }
        if f.is_punct(s + 1, "(") {
            if let Some(close) = f.cmatch(s + 1) {
                if f.is_ident(close - 1, "_") {
                    return Some("the tag position of the tuple is bound to `_`".to_string());
                }
            }
        }
        return None; // a named binding counts as consumption
    }
    // Projection directly off the call: `call(…).distance` etc.
    if let Some(close) = f.cmatch(ci + 1) {
        let mut p = close + 1;
        if f.is_punct(p, "?") {
            p += 1;
        }
        if f.is_punct(p, ".") {
            let fld = p + 1;
            if fld < f.n_code()
                && (f.ckind(fld) == TokenKind::Ident || f.ckind(fld) == TokenKind::Int)
                && !consuming(fld)
            {
                return Some(format!(
                    "only `.{}` is projected out of the tagged result",
                    f.ctext(fld)
                ));
            }
        }
    }
    // A bare statement whose whole content is the call drops the result.
    let prefix_is_receiver = (s..ci).all(|j| {
        f.ckind(j) == TokenKind::Ident
            || f.is_punct(j, "::")
            || f.is_punct(j, ".")
            || f.is_punct(j, "&")
    });
    if prefix_is_receiver {
        return Some("the result (and its tag) is discarded".to_string());
    }
    None
}

/// Rule `completeness-flow`: a fn that returns a `Completeness`-tagged
/// result promises its callers a truth-in-labeling bit; a caller that
/// drops the tag silently converts a budget-truncated answer into a
/// confident one. It follows the *type*, not a fixed list of kernel
/// names.
fn completeness_flow(ws: &Workspace, out: &mut Vec<Diagnostic>) {
    // Tagged types: `Completeness` and every struct that embeds one
    // (results like `GedResult`).
    let tagged = ws.embedding_closure(&["Completeness"]);
    let tagged_defs: BTreeSet<usize> = (0..ws.defs.len())
        .filter(|&id| !ws.defs[id].in_test && returns_tagged(ws, id, &tagged))
        .collect();

    for c in &ws.calls {
        if !in_dirs(&ws.files[c.file].rel, PIPELINE_DIRS) {
            continue;
        }
        let is_tagged = match &c.callee {
            Callee::Resolved(t) => tagged_defs.contains(t),
            Callee::Ambiguous(ts) => !ts.is_empty() && ts.iter().all(|t| tagged_defs.contains(t)),
            Callee::Unresolved => false,
        };
        if !is_tagged {
            continue;
        }
        if let Some(reason) = discard_reason(&ws.files[c.file], c.ci) {
            emit(
                ws,
                c.file,
                c.ci,
                "completeness-flow",
                format!(
                    "`{}` returns a Completeness-tagged result but {reason}; read \
                     `.completeness`/`is_exact` or propagate the tagged value",
                    c.name
                ),
                out,
            );
        }
    }
}

// ---- lock-order-xfn ----------------------------------------------------

/// A lock acquisition inside a fn body: `(key, code index)`.
fn lock_sites(ws: &Workspace, id: usize) -> Vec<(String, usize)> {
    let f = &ws.files[ws.defs[id].file];
    let mut out = Vec::new();
    for ci in ws.own_body(id) {
        if !f.is_punct(ci, ".")
            || !(f.is_ident(ci + 1, "lock") || f.is_ident(ci + 1, "try_lock"))
            || !f.is_punct(ci + 2, "(")
        {
            continue;
        }
        // The receiver chain, walked back over idents / `.` / `::`.
        let mut start = ci;
        let mut j = ci;
        while j > 0 {
            let p = j - 1;
            if f.ckind(p) == TokenKind::Ident || f.is_punct(p, ".") || f.is_punct(p, "::") {
                start = p;
                j = p;
            } else {
                break;
            }
        }
        let mut key: String = (start..ci).map(|k| f.ctext(k)).collect::<Vec<_>>().join("");
        if key.starts_with("self") {
            if let Some(r) = &ws.defs[id].receiver {
                key = format!("{r}::{key}");
            }
        }
        out.push((key, ci));
    }
    out
}

/// Rule `lock-order-xfn`: propagate lock acquisitions through the call
/// graph and flag (a) a lock re-acquired through a call path while
/// textually held (re-entrant `Mutex::lock` self-deadlocks), (b)
/// lock-order cycles assembled across function boundaries, and (c) any
/// fn body, test code included, that takes two or more locks, from the
/// second acquisition on, so every multi-lock scope carries an audited
/// acquisition order. One finding per site: (c) stays silent where (a)
/// or (b) already anchors.
fn lock_order_xfn(ws: &Workspace, out: &mut Vec<Diagnostic>) {
    let sites: Vec<Vec<(String, usize)>> =
        (0..ws.defs.len()).map(|id| lock_sites(ws, id)).collect();
    // Re-entry and cycles are judged on library code only.
    let own: Vec<&[(String, usize)]> = sites
        .iter()
        .zip(&ws.defs)
        .map(|(s, d)| if d.in_test { &[][..] } else { s.as_slice() })
        .collect();
    let mut anchored: BTreeSet<(usize, usize)> = BTreeSet::new();

    // Transitive lock sets over resolved edges.
    let mut trans: Vec<BTreeSet<String>> = own
        .iter()
        .map(|v| v.iter().map(|(k, _)| k.clone()).collect())
        .collect();
    loop {
        let mut grew = false;
        for id in 0..ws.defs.len() {
            for &si in ws.calls_of(id) {
                if let Callee::Resolved(t) = ws.calls[si].callee {
                    let add: Vec<String> = trans[t].difference(&trans[id]).cloned().collect();
                    if !add.is_empty() {
                        trans[id].extend(add);
                        grew = true;
                    }
                }
            }
        }
        if !grew {
            break;
        }
    }

    // Order edges `first -> second`, each with its witness site.
    let mut edges: BTreeMap<(String, String), (usize, usize, String)> = BTreeMap::new();
    for (id, locks) in own.iter().enumerate() {
        let fi = ws.defs[id].file;
        // Intra-fn ordered pairs.
        for (i, (ka, _)) in locks.iter().enumerate() {
            for (kb, cb) in locks.iter().skip(i + 1) {
                if ka != kb {
                    edges.entry((ka.clone(), kb.clone())).or_insert((
                        fi,
                        *cb,
                        ws.defs[id].name.clone(),
                    ));
                }
            }
        }
        // Locks textually held across a call pair with the callee's set.
        for &si in ws.calls_of(id) {
            let c = &ws.calls[si];
            let Callee::Resolved(t) = c.callee else {
                continue;
            };
            for (ka, ca) in locks.iter() {
                if *ca >= c.ci {
                    continue;
                }
                for kb in &trans[t] {
                    if kb == ka {
                        anchored.insert((c.file, c.ci));
                        emit(
                            ws,
                            c.file,
                            c.ci,
                            "lock-order-xfn",
                            format!(
                                "`{}` holds `{ka}` and calls `{}`, which acquires it \
                                 again; re-entrant Mutex::lock self-deadlocks",
                                ws.defs[id].name, ws.defs[t].name
                            ),
                            out,
                        );
                    } else {
                        edges.entry((ka.clone(), kb.clone())).or_insert((
                            c.file,
                            c.ci,
                            ws.defs[id].name.clone(),
                        ));
                    }
                }
            }
        }
    }

    // Cycle detection over the key graph (deterministic DFS order).
    let mut adj: BTreeMap<&String, Vec<&String>> = BTreeMap::new();
    for (a, b) in edges.keys() {
        adj.entry(a).or_default().push(b);
    }
    let mut reported: BTreeSet<Vec<String>> = BTreeSet::new();
    for (a, b) in edges.keys() {
        // A cycle exists through edge a→b iff b reaches a.
        if !reaches_key(&adj, b, a) {
            continue;
        }
        let mut cycle = vec![a.clone(), b.clone()];
        cycle.sort();
        if !reported.insert(cycle) {
            continue;
        }
        let (fi, ci, fn_name) = &edges[&(a.clone(), b.clone())];
        anchored.insert((*fi, *ci));
        emit(
            ws,
            *fi,
            *ci,
            "lock-order-xfn",
            format!(
                "cross-function lock-order cycle: `{fn_name}` orders `{a}` before \
                 `{b}`, but another call path orders `{b}` before `{a}`; pick one \
                 global order"
            ),
            out,
        );
    }

    // The multi-lock audit. A cycle witnessed by an acquisition anchors
    // at its `.`, a re-entrant call through a workspace `lock` method at
    // the method name.
    for (id, locks) in sites.iter().enumerate() {
        let fi = ws.defs[id].file;
        for &(_, dot) in locks.iter().skip(1) {
            if anchored.contains(&(fi, dot)) || anchored.contains(&(fi, dot + 1)) {
                continue;
            }
            emit(
                ws,
                fi,
                dot + 1,
                "lock-order-xfn",
                format!(
                    "`{}` acquires {} locks; document the acquisition order and \
                     annotate `// xtask-allow: lock-order-xfn` once audited",
                    ws.defs[id].name,
                    locks.len()
                ),
                out,
            );
        }
    }
}

/// Is `to` reachable from `from` in the key graph?
fn reaches_key(adj: &BTreeMap<&String, Vec<&String>>, from: &String, to: &String) -> bool {
    let mut seen: BTreeSet<&String> = BTreeSet::new();
    let mut stack = vec![from];
    while let Some(k) = stack.pop() {
        if k == to {
            return true;
        }
        if !seen.insert(k) {
            continue;
        }
        if let Some(next) = adj.get(k) {
            stack.extend(next.iter().copied());
        }
    }
    false
}
