//! Workspace symbol index and approximate call graph.
//!
//! [`Workspace`] lifts catalint from per-file token rules to whole-program
//! reasoning: it indexes every `fn` definition (with receiver types from
//! enclosing `impl` blocks, visibility, arity, and per-crate module
//! paths), every `struct` with its field types, and every call site, then
//! resolves calls into an approximate call graph:
//!
//! - **free calls** `f(…)` resolve through nested-fn shadowing, the
//!   defining module, the file's `use` imports, and finally a
//!   workspace-unique name match;
//! - **path calls** `a::b::f(…)` resolve `crate`/`self`/`super` heads,
//!   workspace crate names, import aliases, and `Type::assoc` forms;
//! - **method calls** `recv.m(…)` resolve by receiver type where it is
//!   inferable (`self`, `self.field` via the struct index, locals with
//!   `let x: T`/`let x = T::…`/typed params), falling back to a unique
//!   name+arity match gated by a blocklist of ubiquitous std method
//!   names.
//!
//! The graph is deliberately *approximate* (no generics instantiation,
//! no trait dispatch, no macro expansion) but deterministic: files are
//! indexed in sorted order and every map is a `BTreeMap`, so the rules
//! built on it report identically across runs. Unresolvable calls are kept
//! as explicit `Unresolved` sites so rules can reason about coverage.
//! The interprocedural rules in [`crate::xrules`] run on top of this.

use crate::lexer::TokenKind;
use crate::scan::{FnSpan, SourceFile};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;

/// Ubiquitous std/collection method names: a bare name+arity match on
/// one of these is never trusted to resolve a method call, because the
/// receiver is overwhelmingly likely to be a std type.
const COMMON_METHODS: &[&str] = &[
    "abs",
    "all",
    "any",
    "as_mut",
    "as_ref",
    "as_str",
    "bytes",
    "chars",
    "clone",
    "cmp",
    "collect",
    "contains",
    "contains_key",
    "count",
    "dedup",
    "drain",
    "end",
    "entry",
    "enumerate",
    "eq",
    "err",
    "extend",
    "filter",
    "filter_map",
    "find",
    "first",
    "flat_map",
    "flatten",
    "fmt",
    "fold",
    "for_each",
    "get",
    "get_mut",
    "hash",
    "insert",
    "into_iter",
    "is_empty",
    "is_err",
    "is_none",
    "is_ok",
    "is_some",
    "iter",
    "iter_mut",
    "join",
    "keys",
    "last",
    "len",
    "lock",
    "map",
    "max",
    "min",
    "next",
    "ok",
    "or_default",
    "or_insert",
    "partial_cmp",
    "pop",
    "position",
    "push",
    "read",
    "remove",
    "replace",
    "retain",
    "rev",
    "skip",
    "sort",
    "sort_by",
    "split",
    "start",
    "starts_with",
    "sum",
    "take",
    "then",
    "to_owned",
    "to_string",
    "trim",
    "try_lock",
    "unwrap_or",
    "values",
    "windows",
    "write",
    "zip",
];

/// Resolution state of one call site.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Callee {
    /// Exactly one definition matched.
    Resolved(usize),
    /// Several definitions matched (e.g. same method name on two types);
    /// candidates are sorted def ids.
    Ambiguous(Vec<usize>),
    /// No workspace definition matched (std, macro, or unknown receiver).
    Unresolved,
}

/// One `fn` definition in the workspace index.
#[derive(Clone, Debug)]
pub struct FnDef {
    /// The function's name.
    pub name: String,
    /// Index of the defining file in [`Workspace::files`].
    pub file: usize,
    /// Index of the span in that file's `fn_spans()`.
    pub span: usize,
    /// Crate name as spelled in Rust paths (e.g. `catapult_graph`).
    pub krate: String,
    /// Module path within the crate (`::`-joined; empty at the root).
    pub module: String,
    /// Enclosing `impl` target type, for methods and associated fns.
    pub receiver: Option<String>,
    /// Declared `pub` (including `pub(crate)` and friends).
    pub is_pub: bool,
    /// Parameter count, excluding any `self` receiver.
    pub arity: usize,
    /// Takes `self` (by value, reference, or `mut`).
    pub has_self: bool,
    /// Inside `#[cfg(test)]` or a non-library source file.
    pub in_test: bool,
    /// Def id of the enclosing fn, for nested definitions.
    pub parent: Option<usize>,
}

/// One field of an indexed struct.
#[derive(Clone, Debug)]
pub struct FieldDef {
    /// Field name.
    pub name: String,
    /// The type's principal identifier (last path segment outside
    /// generic arguments — `Vec` for `Vec<Foo>`, `Bar` for `a::Bar`).
    pub principal: String,
    /// Every identifier appearing in the type expression.
    pub type_idents: Vec<String>,
}

/// One `struct` definition (named fields only; tuple and unit structs
/// are recorded with an empty field list).
#[derive(Clone, Debug)]
pub struct StructDef {
    /// The struct's name.
    pub name: String,
    /// Crate name as spelled in Rust paths.
    pub krate: String,
    /// Index of the defining file.
    pub file: usize,
    /// Named fields, in declaration order.
    pub fields: Vec<FieldDef>,
}

/// One call site attributed to its enclosing fn definition.
#[derive(Clone, Debug)]
pub struct CallSite {
    /// Def id of the calling fn.
    pub caller: usize,
    /// Index of the file holding the site.
    pub file: usize,
    /// Code index of the callee name token.
    pub ci: usize,
    /// The callee name as written.
    pub name: String,
    /// Number of arguments at the site (excluding any receiver).
    pub arity: usize,
    /// Resolution outcome.
    pub callee: Callee,
}

/// The whole-workspace index: parsed files, fn/struct definitions, and
/// the resolved call graph.
#[derive(Debug)]
pub struct Workspace {
    /// Every scanned file, in sorted-path order.
    pub files: Vec<SourceFile>,
    /// Every fn definition, in `(file, span)` order.
    pub defs: Vec<FnDef>,
    /// Every struct definition, in `(file, position)` order.
    pub structs: Vec<StructDef>,
    /// Every detected call site, in `(file, ci)` order.
    pub calls: Vec<CallSite>,
    /// Per-file crate name (parallel to `files`).
    file_krate: Vec<String>,
    /// Per-file module path (parallel to `files`).
    file_module: Vec<String>,
    /// Per-def indices into `calls` (parallel to `defs`).
    calls_by_caller: Vec<Vec<usize>>,
    /// Per-def ids of directly nested fn defs (parallel to `defs`).
    children: Vec<Vec<usize>>,
}

/// Crate name (as spelled in Rust paths) for a workspace-relative file.
#[must_use]
pub fn crate_of(rel: &str) -> String {
    if let Some(rest) = rel.strip_prefix("crates/") {
        let name = rest.split('/').next().unwrap_or("");
        if name == "catalint" || name == "xtask" {
            name.to_string()
        } else {
            format!("catapult_{}", name.replace('-', "_"))
        }
    } else if let Some(rest) = rel.strip_prefix("shims/") {
        rest.split('/').next().unwrap_or("").replace('-', "_")
    } else {
        "catapult".to_string()
    }
}

/// Module path within the crate (`::`-joined) for a workspace-relative
/// file: `crates/graph/src/iso.rs` → `iso`, crate roots and `src/bin`
/// targets → empty.
#[must_use]
pub fn module_of(rel: &str) -> String {
    let Some(at) = rel
        .find("/src/")
        .map(|i| i + "/src/".len())
        .or_else(|| rel.strip_prefix("src/").map(|_| "src/".len()))
    else {
        return String::new();
    };
    let rest = rel[at..].trim_end_matches(".rs");
    let mut segs: Vec<&str> = rest.split('/').collect();
    if matches!(segs.last().copied(), Some("lib" | "main" | "mod")) {
        segs.pop();
    }
    if segs.first().copied() == Some("bin") {
        return String::new();
    }
    segs.join("::")
}

/// Net `<`-minus-`>` contribution of one punct token when tracking
/// generic-argument nesting (`->`/`=>` contain `>` but are arrows).
fn angle_delta(text: &str) -> i32 {
    if text == "->" || text == "=>" {
        return 0;
    }
    let mut d = 0i32;
    for c in text.chars() {
        if c == '<' {
            d += 1;
        } else if c == '>' {
            d -= 1;
        }
    }
    d
}

/// Is this identifier uppercase-initial (a type or variant name)?
fn is_type_like(name: &str) -> bool {
    name.chars().next().is_some_and(char::is_uppercase)
}

/// Keywords that read as `ident (` but are not calls.
const NON_CALL_KEYWORDS: &[&str] = &[
    "as", "box", "const", "dyn", "else", "fn", "for", "if", "impl", "in", "let", "loop", "match",
    "move", "mut", "pub", "ref", "return", "static", "unsafe", "use", "where", "while", "yield",
];

/// Token texts that end an item and may directly precede an item
/// keyword (`impl`, `use`, `struct`) at item position.
fn at_item_position(f: &SourceFile, ci: usize) -> bool {
    if ci == 0 {
        return true;
    }
    let prev = f.ctext(ci - 1);
    matches!(prev, "{" | "}" | ";" | "]") || matches!(prev, "pub" | "unsafe" | ")")
}

impl Workspace {
    /// Index `files` (already parsed, any order) into a workspace: sorts
    /// by path, builds the symbol tables, and resolves the call graph.
    #[must_use]
    pub fn build(mut files: Vec<SourceFile>) -> Workspace {
        files.sort_by(|a, b| a.rel.cmp(&b.rel));
        let file_krate: Vec<String> = files.iter().map(|f| crate_of(&f.rel)).collect();
        let file_module: Vec<String> = files.iter().map(|f| module_of(&f.rel)).collect();

        let mut ws = Workspace {
            files,
            defs: Vec::new(),
            structs: Vec::new(),
            calls: Vec::new(),
            file_krate,
            file_module,
            calls_by_caller: Vec::new(),
            children: Vec::new(),
        };
        let imports: Vec<BTreeMap<String, Vec<String>>> =
            ws.files.iter().map(collect_imports).collect();
        ws.collect_defs();
        ws.collect_structs();
        ws.collect_calls(&imports);
        ws
    }

    // ---- accessors -----------------------------------------------------

    /// A human-readable `crate::module::Type::name` label for a def.
    #[must_use]
    pub fn label(&self, id: usize) -> String {
        let d = &self.defs[id];
        let mut s = d.krate.clone();
        if !d.module.is_empty() {
            let _ = write!(s, "::{}", d.module);
        }
        if let Some(r) = &d.receiver {
            let _ = write!(s, "::{r}");
        }
        let _ = write!(s, "::{}", d.name);
        s
    }

    /// The span backing def `id`.
    #[must_use]
    pub fn span_of(&self, id: usize) -> &FnSpan {
        &self.files[self.defs[id].file].fn_spans()[self.defs[id].span]
    }

    /// Inclusive code range of the signature (keyword through return
    /// type, excluding the body).
    #[must_use]
    pub fn sig_range(&self, id: usize) -> (usize, usize) {
        let span = self.span_of(id);
        let end = span.open.map_or(span.end, |o| o.saturating_sub(1));
        (span.kw, end.max(span.kw))
    }

    /// Code indices of the def's own body, excluding the bodies of
    /// directly nested fn definitions (those belong to their own defs).
    #[must_use]
    pub fn own_body(&self, id: usize) -> Vec<usize> {
        let span = self.span_of(id);
        let (Some(open), Some(close)) = (span.open, span.close) else {
            return Vec::new();
        };
        let nested: Vec<(usize, usize)> = self.children[id]
            .iter()
            .map(|&c| {
                let s = self.span_of(c);
                (s.kw, s.end)
            })
            .collect();
        let mut out = Vec::new();
        let mut ci = open + 1;
        while ci < close {
            if let Some(&(_, end)) = nested.iter().find(|&&(kw, _)| kw == ci) {
                ci = end + 1;
                continue;
            }
            out.push(ci);
            ci += 1;
        }
        out
    }

    /// Does any token in the def's signature spell one of `names`?
    #[must_use]
    pub fn sig_mentions(&self, id: usize, names: &BTreeSet<String>) -> bool {
        let f = &self.files[self.defs[id].file];
        let (s, e) = self.sig_range(id);
        (s..=e).any(|ci| f.ckind(ci) == TokenKind::Ident && names.contains(f.ctext(ci)))
    }

    /// Does any token in the def's own body spell one of `names`?
    #[must_use]
    pub fn body_mentions(&self, id: usize, names: &BTreeSet<String>) -> bool {
        let f = &self.files[self.defs[id].file];
        self.own_body(id)
            .iter()
            .any(|&ci| f.ckind(ci) == TokenKind::Ident && names.contains(f.ctext(ci)))
    }

    /// Indices into [`Workspace::calls`] of the sites inside def `id`.
    #[must_use]
    pub fn calls_of(&self, id: usize) -> &[usize] {
        &self.calls_by_caller[id]
    }

    /// Look up a struct by name (optionally preferring `krate`).
    #[must_use]
    pub fn struct_named(&self, name: &str, krate: Option<&str>) -> Option<&StructDef> {
        let mut hits = self.structs.iter().filter(|s| s.name == name);
        match krate {
            Some(k) => hits.clone().find(|s| s.krate == k).or_else(|| hits.next()),
            None => hits.next(),
        }
    }

    /// `seeds` plus the name of every struct that transitively embeds
    /// one through a field type (`Config { budget: SearchBudget }`
    /// carries a `SearchBudget`): the struct-embedding fixpoint the
    /// type-driven rules share.
    #[must_use]
    pub fn embedding_closure(&self, seeds: &[&str]) -> BTreeSet<String> {
        let mut names: BTreeSet<String> = seeds.iter().map(|s| (*s).to_string()).collect();
        loop {
            let mut grew = false;
            for s in &self.structs {
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

    // ---- definitions ---------------------------------------------------

    fn collect_defs(&mut self) {
        let mut defs = Vec::new();
        let mut children: Vec<Vec<usize>> = Vec::new();
        for fi in 0..self.files.len() {
            let first_id = defs.len();
            let impls = collect_impls(&self.files[fi]);
            let f = &self.files[fi];
            let library = crate::rules::is_library_src(&f.rel);
            for (si, span) in f.fn_spans().iter().enumerate() {
                let receiver = impls
                    .iter()
                    .filter(|(open, close, _)| *open < span.kw && span.end <= *close)
                    .max_by_key(|(open, _, _)| *open)
                    .map(|(_, _, name)| name.clone());
                let (arity, has_self) = param_shape(f, span);
                defs.push(FnDef {
                    name: f.ctext(span.name_ci).to_string(),
                    file: fi,
                    span: si,
                    krate: self.file_krate[fi].clone(),
                    module: self.file_module[fi].clone(),
                    receiver,
                    is_pub: is_pub_def(f, span.kw),
                    arity,
                    has_self,
                    in_test: f.in_test(span.kw) || !library,
                    parent: None,
                });
                children.push(Vec::new());
            }
            // Parent links: innermost enclosing span in the same file.
            let spans = f.fn_spans();
            for (si, span) in spans.iter().enumerate() {
                let parent = spans
                    .iter()
                    .enumerate()
                    .filter(|(ti, t)| *ti != si && t.kw < span.kw && span.end <= t.end)
                    .max_by_key(|(_, t)| t.kw)
                    .map(|(ti, _)| first_id + ti);
                defs[first_id + si].parent = parent;
                if let Some(p) = parent {
                    children[p].push(first_id + si);
                }
            }
        }
        self.defs = defs;
        self.children = children;
    }

    fn collect_structs(&mut self) {
        let mut out = Vec::new();
        for (fi, f) in self.files.iter().enumerate() {
            let n = f.n_code();
            for ci in 0..n {
                if !f.is_ident(ci, "struct")
                    || !at_item_position(f, ci)
                    || ci + 1 >= n
                    || f.ckind(ci + 1) != TokenKind::Ident
                {
                    continue;
                }
                let name = f.ctext(ci + 1).to_string();
                let d = f.cdepth(ci);
                // Find the field block `{` at the struct's depth; `;` or
                // `(` first means a unit/tuple struct.
                let mut fields = Vec::new();
                let mut j = ci + 2;
                let mut angle = 0i32;
                while j < n && f.cdepth(j) >= d {
                    if f.ckind(j) == TokenKind::Punct {
                        let t = f.ctext(j);
                        if angle == 0 && f.cdepth(j) == d {
                            if t == ";" || t == "(" {
                                break;
                            }
                            if t == "{" {
                                if let Some(close) = f.cmatch(j) {
                                    fields = collect_fields(f, j, close);
                                }
                                break;
                            }
                        }
                        angle += angle_delta(t);
                    }
                    j += 1;
                }
                out.push(StructDef {
                    name,
                    krate: self.file_krate[fi].clone(),
                    file: fi,
                    fields,
                });
            }
        }
        self.structs = out;
    }

    // ---- call sites ----------------------------------------------------

    fn collect_calls(&mut self, imports: &[BTreeMap<String, Vec<String>>]) {
        let known_crates: BTreeSet<String> = self.file_krate.iter().cloned().collect();
        let mut by_name: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
        for (id, d) in self.defs.iter().enumerate() {
            by_name.entry(d.name.as_str()).or_default().push(id);
        }

        let mut calls = Vec::new();
        for caller in 0..self.defs.len() {
            if self.defs[caller].in_test {
                continue;
            }
            let fi = self.defs[caller].file;
            for ci in self.own_body(caller) {
                let f = &self.files[fi];
                if f.ckind(ci) != TokenKind::Ident || !f.is_punct(ci + 1, "(") {
                    continue;
                }
                let name = f.ctext(ci);
                if NON_CALL_KEYWORDS.contains(&name) {
                    continue;
                }
                let arity = call_arity(f, ci + 1);
                let site = if ci > 0 && f.is_punct(ci - 1, ".") {
                    self.resolve_method(caller, fi, ci, name, arity, &by_name)
                } else if ci > 0 && f.is_punct(ci - 1, "::") {
                    self.resolve_path_call(caller, fi, ci, name, arity, &imports[fi], &known_crates)
                } else if is_type_like(name) {
                    None // tuple-struct or enum-variant constructor
                } else {
                    self.resolve_free(
                        caller,
                        fi,
                        ci,
                        name,
                        arity,
                        &imports[fi],
                        &known_crates,
                        &by_name,
                    )
                };
                if let Some(site) = site {
                    calls.push(site);
                }
            }
        }

        let mut by_caller: Vec<Vec<usize>> = vec![Vec::new(); self.defs.len()];
        for (i, c) in calls.iter().enumerate() {
            by_caller[c.caller].push(i);
        }
        self.calls = calls;
        self.calls_by_caller = by_caller;
    }

    fn site(
        &self,
        caller: usize,
        fi: usize,
        ci: usize,
        name: &str,
        arity: usize,
        callee: Callee,
    ) -> CallSite {
        CallSite {
            caller,
            file: fi,
            ci,
            name: name.to_string(),
            arity,
            callee,
        }
    }

    /// Narrow a candidate list into a [`Callee`].
    fn decide(mut candidates: Vec<usize>) -> Callee {
        candidates.sort_unstable();
        candidates.dedup();
        match candidates.len() {
            0 => Callee::Unresolved,
            1 => Callee::Resolved(candidates[0]),
            _ => Callee::Ambiguous(candidates),
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn resolve_free(
        &self,
        caller: usize,
        fi: usize,
        ci: usize,
        name: &str,
        arity: usize,
        imports: &BTreeMap<String, Vec<String>>,
        known_crates: &BTreeSet<String>,
        by_name: &BTreeMap<&str, Vec<usize>>,
    ) -> Option<CallSite> {
        let empty = Vec::new();
        let named = by_name.get(name).unwrap_or(&empty);

        // 1. Nested fns in the enclosing chain shadow everything else.
        let mut anc = Some(caller);
        while let Some(a) = anc {
            if let Some(&child) = self.children[a]
                .iter()
                .find(|&&c| self.defs[c].name == name)
            {
                return Some(self.site(caller, fi, ci, name, arity, Callee::Resolved(child)));
            }
            anc = self.defs[a].parent;
        }

        // 2. Free fns in the same crate+module.
        let here: Vec<usize> = named
            .iter()
            .copied()
            .filter(|&id| {
                let d = &self.defs[id];
                d.receiver.is_none()
                    && d.parent.is_none()
                    && d.krate == self.file_krate[fi]
                    && d.module == self.file_module[fi]
            })
            .collect();
        if !here.is_empty() {
            return Some(self.site(caller, fi, ci, name, arity, Self::decide(here)));
        }

        // 3. A `use` import naming it.
        if let Some(path) = imports.get(name) {
            let callee = self.resolve_segments(fi, path, known_crates);
            return Some(self.site(caller, fi, ci, name, arity, callee));
        }

        // 4. Workspace-unique free fn of that name.
        let unique: Vec<usize> = named
            .iter()
            .copied()
            .filter(|&id| self.defs[id].receiver.is_none() && self.defs[id].parent.is_none())
            .collect();
        let callee = if unique.len() == 1 {
            Callee::Resolved(unique[0])
        } else {
            Callee::Unresolved
        };
        Some(self.site(caller, fi, ci, name, arity, callee))
    }

    #[allow(clippy::too_many_arguments)]
    fn resolve_path_call(
        &self,
        caller: usize,
        fi: usize,
        ci: usize,
        name: &str,
        arity: usize,
        imports: &BTreeMap<String, Vec<String>>,
        known_crates: &BTreeSet<String>,
    ) -> Option<CallSite> {
        let f = &self.files[fi];
        // Walk back over `seg ::` pairs to collect the written path.
        let mut segs: Vec<String> = vec![name.to_string()];
        let mut j = ci - 1; // at `::`
        while j >= 1 && f.is_punct(j, "::") && f.ckind(j - 1) == TokenKind::Ident {
            segs.insert(0, f.ctext(j - 1).to_string());
            if j < 2 {
                break;
            }
            j -= 2;
        }
        if segs.len() < 2 {
            return Some(self.site(caller, fi, ci, name, arity, Callee::Unresolved));
        }
        // `Self::assoc(…)` targets the caller's own impl type.
        if segs.first().map(String::as_str) == Some("Self") {
            if let Some(r) = &self.defs[caller].receiver {
                segs[0] = r.clone();
            }
        }
        // Substitute a leading import alias (`use a::b; b::f()`).
        if let Some(expansion) = imports.get(&segs[0]) {
            let mut full = expansion.clone();
            full.extend(segs[1..].iter().cloned());
            segs = full;
        }
        let callee = self.resolve_segments(fi, &segs, known_crates);
        Some(self.site(caller, fi, ci, name, arity, callee))
    }

    /// Resolve a full path (`crate`/`self`/`super` heads, workspace
    /// crate names, `Type::assoc` tails) to candidate defs.
    fn resolve_segments(
        &self,
        fi: usize,
        segs: &[String],
        known_crates: &BTreeSet<String>,
    ) -> Callee {
        let Some((name, mut mods)) = segs.split_last() else {
            return Callee::Unresolved;
        };
        let krate: String;
        match mods.first().map(String::as_str) {
            Some("crate") => {
                krate = self.file_krate[fi].clone();
                mods = &mods[1..];
            }
            Some("self") => {
                krate = self.file_krate[fi].clone();
                let mut full: Vec<String> = split_module(&self.file_module[fi]);
                full.extend(mods[1..].iter().cloned());
                return self.resolve_in(name, &krate, &full);
            }
            Some("super") => {
                krate = self.file_krate[fi].clone();
                let mut base = split_module(&self.file_module[fi]);
                let mut rest = mods;
                while rest.first().map(String::as_str) == Some("super") {
                    base.pop();
                    rest = &rest[1..];
                }
                let mut full = base;
                full.extend(rest.iter().cloned());
                return self.resolve_in(name, &krate, &full);
            }
            Some(head) if known_crates.contains(head) => {
                krate = head.to_string();
                mods = &mods[1..];
            }
            Some(head) if is_type_like(head) && mods.len() == 1 => {
                // `Type::assoc(…)` with the type in scope.
                return self.resolve_assoc(name, head, Some(&self.file_krate[fi]));
            }
            Some(_) => {
                // Treat the head as a sibling module of the same crate.
                krate = self.file_krate[fi].clone();
            }
            None => {
                // Bare `::name` after alias substitution collapsed.
                krate = self.file_krate[fi].clone();
            }
        }
        let owned: Vec<String> = mods.to_vec();
        self.resolve_in(name, &krate, &owned)
    }

    /// Resolve `name` within `krate::mods`, treating an uppercase last
    /// module segment as a type receiver.
    fn resolve_in(&self, name: &str, krate: &str, mods: &[String]) -> Callee {
        if let Some((last, _)) = mods.split_last() {
            if is_type_like(last) {
                return self.resolve_assoc(name, last, Some(krate));
            }
        }
        let module = mods.join("::");
        let candidates: Vec<usize> = self
            .defs
            .iter()
            .enumerate()
            .filter(|(_, d)| {
                d.name == name
                    && d.receiver.is_none()
                    && d.parent.is_none()
                    && d.krate == krate
                    && d.module == module
            })
            .map(|(id, _)| id)
            .collect();
        if !candidates.is_empty() {
            return Self::decide(candidates);
        }
        // Re-export approximation: `use some_crate::item` usually names
        // an inner-module item `pub use`d at the crate root (the lib.rs
        // façade idiom). The index doesn't model `pub use`, so fall back
        // to the crate's pub free fns of that name — unique → resolved,
        // several → ambiguous, which the rules treat as "don't know".
        let reexported: Vec<usize> = self
            .defs
            .iter()
            .enumerate()
            .filter(|(_, d)| {
                d.name == name
                    && d.is_pub
                    && d.receiver.is_none()
                    && d.parent.is_none()
                    && d.krate == krate
            })
            .map(|(id, _)| id)
            .collect();
        Self::decide(reexported)
    }

    /// Resolve an associated fn / method `Type::name`, preferring defs
    /// in `krate` when several types share the name.
    fn resolve_assoc(&self, name: &str, receiver: &str, krate: Option<&str>) -> Callee {
        let all: Vec<usize> = self
            .defs
            .iter()
            .enumerate()
            .filter(|(_, d)| d.name == name && d.receiver.as_deref() == Some(receiver))
            .map(|(id, _)| id)
            .collect();
        if all.len() > 1 {
            if let Some(k) = krate {
                let near: Vec<usize> = all
                    .iter()
                    .copied()
                    .filter(|&id| self.defs[id].krate == k)
                    .collect();
                if !near.is_empty() {
                    return Self::decide(near);
                }
            }
        }
        Self::decide(all)
    }

    fn resolve_method(
        &self,
        caller: usize,
        fi: usize,
        ci: usize,
        name: &str,
        arity: usize,
        by_name: &BTreeMap<&str, Vec<usize>>,
    ) -> Option<CallSite> {
        let f = &self.files[fi];
        let chain = receiver_chain(f, ci - 1);
        let chain: Option<Vec<&str>> = chain
            .as_ref()
            .map(|v| v.iter().map(String::as_str).collect());
        let krate = self.file_krate[fi].clone();

        let recv_type: Option<String> = match chain.as_deref() {
            Some(["self"]) => self.defs[caller].receiver.clone(),
            Some(["self", field]) => self.defs[caller]
                .receiver
                .as_deref()
                .and_then(|r| self.struct_named(r, Some(&krate)))
                .and_then(|s| s.fields.iter().find(|fd| fd.name == *field))
                .map(|fd| fd.principal.clone()),
            Some([var]) => self.infer_local_type(caller, ci, var),
            _ => None,
        };

        if let Some(recv) = recv_type {
            let callee = self.resolve_assoc(name, &recv, Some(&krate));
            if callee != Callee::Unresolved {
                return Some(self.site(caller, fi, ci, name, arity, callee));
            }
        }

        // Fallback: a workspace-unique method with matching name+arity,
        // unless the name is a ubiquitous std method.
        if COMMON_METHODS.contains(&name) {
            return None;
        }
        let empty = Vec::new();
        let candidates: Vec<usize> = by_name
            .get(name)
            .unwrap_or(&empty)
            .iter()
            .copied()
            .filter(|&id| self.defs[id].has_self && self.defs[id].arity == arity)
            .collect();
        let callee = match candidates.len() {
            1 => Callee::Resolved(candidates[0]),
            2..=4 => Self::decide(candidates),
            _ => Callee::Unresolved,
        };
        Some(self.site(caller, fi, ci, name, arity, callee))
    }

    /// Infer the principal type of local `var` inside `caller`: a typed
    /// parameter, a `let var: T`, or a `let var = T::…` binding.
    fn infer_local_type(&self, caller: usize, before: usize, var: &str) -> Option<String> {
        let f = &self.files[self.defs[caller].file];
        let span = self.span_of(caller);
        // Typed parameter.
        if let Some(open) = param_open(f, span) {
            if let Some(close) = f.cmatch(open) {
                let d = f.cdepth(open) + 1;
                for j in open + 1..close {
                    if f.cdepth(j) == d && f.is_ident(j, var) && f.is_punct(j + 1, ":") {
                        return principal_ident(f, j + 2, close, &[",", ")"]);
                    }
                }
            }
        }
        // `let var …` bindings lexically before the call.
        let body = self.own_body(caller);
        let mut found = None;
        for &j in &body {
            if j >= before {
                break;
            }
            if !f.is_ident(j, "let") {
                continue;
            }
            let mut k = j + 1;
            if f.is_ident(k, "mut") {
                k += 1;
            }
            if !f.is_ident(k, var) {
                continue;
            }
            if f.is_punct(k + 1, ":") {
                found = principal_ident(f, k + 2, f.n_code(), &["=", ";"]).or(found);
            } else if f.is_punct(k + 1, "=")
                && f.ckind(k + 2) == TokenKind::Ident
                && is_type_like(f.ctext(k + 2))
                && (f.is_punct(k + 3, "::") || f.is_punct(k + 3, "{"))
            {
                found = Some(f.ctext(k + 2).to_string());
            }
        }
        found
    }
}

// ---- token-level helpers ----------------------------------------------

/// Is the `fn` at code index `kw` declared `pub` (any visibility form)?
fn is_pub_def(f: &SourceFile, kw: usize) -> bool {
    let mut j = kw;
    while j > 0 {
        let p = j - 1;
        let t = f.ctext(p);
        if matches!(t, "unsafe" | "const" | "async" | "extern") || f.ckind(p) == TokenKind::StrLit {
            j = p;
            continue;
        }
        if f.is_punct(p, ")") {
            if let Some(open) = f.cmatch(p) {
                return open > 0 && f.is_ident(open - 1, "pub");
            }
            return false;
        }
        return f.is_ident(p, "pub");
    }
    false
}

/// Find the parameter-list `(` of a fn span, skipping generic brackets.
fn param_open(f: &SourceFile, span: &FnSpan) -> Option<usize> {
    let d = f.cdepth(span.kw);
    let mut angle = 0i32;
    let mut j = span.name_ci + 1;
    while j <= span.end {
        if f.ckind(j) == TokenKind::Punct {
            let t = f.ctext(j);
            if angle == 0 && t == "(" && f.cdepth(j) == d {
                return Some(j);
            }
            angle += angle_delta(t);
        }
        j += 1;
    }
    None
}

/// `(arity, has_self)` of a fn span's parameter list.
fn param_shape(f: &SourceFile, span: &FnSpan) -> (usize, bool) {
    let Some(open) = param_open(f, span) else {
        return (0, false);
    };
    let Some(close) = f.cmatch(open) else {
        return (0, false);
    };
    if close == open + 1 {
        return (0, false);
    }
    let mut k = open + 1;
    while k < close
        && (f.is_punct(k, "&") || f.is_ident(k, "mut") || f.ckind(k) == TokenKind::Lifetime)
    {
        k += 1;
    }
    let has_self = f.is_ident(k, "self");
    let inner = f.cdepth(open) + 1;
    let mut commas = 0usize;
    let mut angle = 0i32;
    for j in open + 1..close {
        if f.ckind(j) == TokenKind::Punct {
            let t = f.ctext(j);
            if f.cdepth(j) == inner && angle == 0 && t == "," {
                commas += 1;
            }
            angle += angle_delta(t);
        }
    }
    let trailing = f.is_punct(close - 1, ",");
    let params = if trailing { commas } else { commas + 1 };
    (params.saturating_sub(usize::from(has_self)), has_self)
}

/// Number of comma-separated arguments inside the call parens at `open`.
fn call_arity(f: &SourceFile, open: usize) -> usize {
    let Some(close) = f.cmatch(open) else {
        return 0;
    };
    if close == open + 1 {
        return 0;
    }
    let inner = f.cdepth(open) + 1;
    let mut commas = 0usize;
    for j in open + 1..close {
        if f.cdepth(j) == inner && f.is_punct(j, ",") {
            commas += 1;
        }
    }
    if f.is_punct(close - 1, ",") {
        commas
    } else {
        commas + 1
    }
}

/// The receiver chain of a method call, walking back from the `.` at
/// `dot`: `Some(["self"])`, `Some(["self", "field"])`, `Some(["var"])`
/// for the inferable shapes, `None` for anything more complex.
fn receiver_chain(f: &SourceFile, dot: usize) -> Option<Vec<String>> {
    let mut parts: Vec<String> = Vec::new();
    let mut j = dot;
    loop {
        if j == 0 {
            break;
        }
        let p = j - 1;
        if f.ckind(p) != TokenKind::Ident {
            return None; // `)`/`]`/literal receivers are not inferable
        }
        parts.insert(0, f.ctext(p).to_string());
        if p >= 1 && f.is_punct(p - 1, ".") {
            j = p - 1;
            continue;
        }
        if p >= 1 && f.is_punct(p - 1, "::") {
            return None; // path-qualified receiver (constant, static)
        }
        break;
    }
    if parts.is_empty() || parts.len() > 2 {
        return None;
    }
    if parts.len() == 2 && parts[0] != "self" {
        return None;
    }
    Some(parts)
}

/// Last identifier at angle depth zero in `[from, stop)`, stopping at
/// any of `enders` at the starting paren depth: the principal type name
/// of a type expression (`Vec` for `Vec<Foo>`, `Bar` for `&a::Bar`).
fn principal_ident(f: &SourceFile, from: usize, stop: usize, enders: &[&str]) -> Option<String> {
    let n = f.n_code().min(stop);
    if from >= n {
        return None;
    }
    let base = f.cdepth(from);
    let mut angle = 0i32;
    let mut last: Option<String> = None;
    for j in from..n {
        if f.cdepth(j) < base {
            break;
        }
        let t = f.ctext(j);
        if f.ckind(j) == TokenKind::Punct {
            if angle == 0 && f.cdepth(j) == base && enders.contains(&t) {
                break;
            }
            angle += angle_delta(t);
            continue;
        }
        if f.ckind(j) == TokenKind::Ident
            && angle == 0
            && f.cdepth(j) == base
            && !matches!(t, "dyn" | "impl" | "mut")
        {
            last = Some(t.to_string());
        }
    }
    last
}

/// Named fields of a struct body `{open … close}`.
fn collect_fields(f: &SourceFile, open: usize, close: usize) -> Vec<FieldDef> {
    let inner = f.cdepth(open) + 1;
    let mut out = Vec::new();
    let mut j = open + 1;
    while j < close {
        // Skip attributes and visibility.
        if f.is_punct(j, "#") && f.is_punct(j + 1, "[") {
            j = f.cmatch(j + 1).map_or(j + 2, |c| c + 1);
            continue;
        }
        if f.is_ident(j, "pub") {
            if f.is_punct(j + 1, "(") {
                j = f.cmatch(j + 1).map_or(j + 2, |c| c + 1);
            } else {
                j += 1;
            }
            continue;
        }
        if f.cdepth(j) == inner && f.ckind(j) == TokenKind::Ident && f.is_punct(j + 1, ":") {
            let name = f.ctext(j).to_string();
            let mut type_idents = Vec::new();
            let mut angle = 0i32;
            let mut k = j + 2;
            while k < close {
                let t = f.ctext(k);
                if f.ckind(k) == TokenKind::Punct {
                    if angle == 0 && f.cdepth(k) == inner && t == "," {
                        break;
                    }
                    angle += angle_delta(t);
                } else if f.ckind(k) == TokenKind::Ident {
                    type_idents.push(t.to_string());
                }
                k += 1;
            }
            let principal = principal_ident(f, j + 2, k, &[","]).unwrap_or_default();
            out.push(FieldDef {
                name,
                principal,
                type_idents,
            });
            j = k + 1;
            continue;
        }
        j += 1;
    }
    out
}

/// `impl` block extents in one file: `(open, close, target type name)`.
fn collect_impls(f: &SourceFile) -> Vec<(usize, usize, String)> {
    let n = f.n_code();
    let mut out = Vec::new();
    for ci in 0..n {
        if !f.is_ident(ci, "impl") || !at_item_position(f, ci) {
            continue;
        }
        let d = f.cdepth(ci);
        let mut angle = 0i32;
        let mut candidate: Option<String> = None;
        let mut frozen = false;
        let mut j = ci + 1;
        while j < n && f.cdepth(j) >= d {
            let t = f.ctext(j);
            if f.ckind(j) == TokenKind::Punct {
                if angle == 0 && f.cdepth(j) == d {
                    if t == "{" {
                        if let (Some(close), Some(name)) = (f.cmatch(j), candidate.take()) {
                            out.push((j, close, name));
                        }
                        break;
                    }
                    if t == ";" {
                        break;
                    }
                }
                angle += angle_delta(t);
            } else if f.ckind(j) == TokenKind::Ident && angle == 0 {
                match t {
                    "for" => {
                        candidate = None; // the trait came first; restart
                        frozen = false;
                    }
                    "where" => frozen = true,
                    _ if !frozen => candidate = Some(t.to_string()),
                    _ => {}
                }
            }
            j += 1;
        }
    }
    out
}

/// Split a `::`-joined module path into segments (empty path → none).
fn split_module(module: &str) -> Vec<String> {
    if module.is_empty() {
        Vec::new()
    } else {
        module.split("::").map(str::to_string).collect()
    }
}

/// The file's `use` imports: alias → full path segments. Handles
/// nested `{…}` groups, `as` renames, and `self` group members; glob
/// imports are ignored.
fn collect_imports(f: &SourceFile) -> BTreeMap<String, Vec<String>> {
    let mut map = BTreeMap::new();
    let n = f.n_code();
    for ci in 0..n {
        if !f.is_ident(ci, "use") || !at_item_position(f, ci) {
            continue;
        }
        let mut prefix: Vec<String> = Vec::new();
        parse_use_tree(f, ci + 1, n, &mut prefix, &mut map);
    }
    map
}

/// Parse one use-tree starting at `j`; returns the index after it.
fn parse_use_tree(
    f: &SourceFile,
    mut j: usize,
    n: usize,
    prefix: &mut Vec<String>,
    map: &mut BTreeMap<String, Vec<String>>,
) -> usize {
    let depth_here = prefix.len();
    loop {
        if j >= n {
            return j;
        }
        if f.is_punct(j, "{") {
            let close = f.cmatch(j).unwrap_or(n.saturating_sub(1));
            let mut k = j + 1;
            while k < close {
                k = parse_use_tree(f, k, close, prefix, map);
                if k < close && f.is_punct(k, ",") {
                    k += 1;
                }
            }
            prefix.truncate(depth_here);
            return close + 1;
        }
        if f.ckind(j) == TokenKind::Ident {
            let seg = f.ctext(j).to_string();
            if f.is_punct(j + 1, "::") {
                prefix.push(seg);
                j += 2;
                continue;
            }
            // Leaf: `seg`, `seg as alias`, or `self` (import the prefix).
            let (alias, full, next) = if f.is_ident(j + 1, "as") && j + 2 < n {
                let alias = f.ctext(j + 2).to_string();
                let mut full = prefix.clone();
                if seg != "self" {
                    full.push(seg);
                }
                (alias, full, j + 3)
            } else if seg == "self" {
                let full = prefix.clone();
                let alias = full.last().cloned().unwrap_or_default();
                (alias, full, j + 1)
            } else {
                let mut full = prefix.clone();
                full.push(seg.clone());
                (seg, full, j + 1)
            };
            if !alias.is_empty() {
                map.insert(alias, full);
            }
            prefix.truncate(depth_here);
            return next;
        }
        if f.is_punct(j, "*") {
            prefix.truncate(depth_here);
            return j + 1; // glob imports are not tracked
        }
        prefix.truncate(depth_here);
        return j + 1; // `;` or anything unexpected ends the tree
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ws(files: &[(&str, &str)]) -> Workspace {
        Workspace::build(
            files
                .iter()
                .map(|(rel, src)| SourceFile::parse((*rel).to_string(), (*src).to_string()))
                .collect(),
        )
    }

    fn def_id(w: &Workspace, label: &str) -> usize {
        let hits: Vec<usize> = (0..w.defs.len()).filter(|&i| w.label(i) == label).collect();
        assert_eq!(hits.len(), 1, "label {label} hits {hits:?}");
        hits[0]
    }

    fn resolved_edges(w: &Workspace) -> Vec<(String, String)> {
        w.calls
            .iter()
            .filter_map(|c| match c.callee {
                Callee::Resolved(t) => Some((w.label(c.caller), w.label(t))),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn crate_and_module_mapping() {
        assert_eq!(crate_of("crates/graph/src/iso.rs"), "catapult_graph");
        assert_eq!(crate_of("crates/catalint/src/lib.rs"), "catalint");
        assert_eq!(crate_of("shims/rayon/src/lib.rs"), "rayon");
        assert_eq!(crate_of("src/main.rs"), "catapult");
        assert_eq!(module_of("crates/graph/src/iso.rs"), "iso");
        assert_eq!(module_of("crates/graph/src/lib.rs"), "");
        assert_eq!(module_of("crates/core/src/walk/deep.rs"), "walk::deep");
        assert_eq!(module_of("crates/bench/src/bin/experiments.rs"), "");
    }

    #[test]
    fn path_calls_resolve_across_crates() {
        let w = ws(&[
            (
                "crates/graph/src/iso.rs",
                "pub fn contains(a: u32) -> bool { a > 0 }\n",
            ),
            (
                "crates/eval/src/basic.rs",
                "pub fn run(x: u32) -> bool { catapult_graph::iso::contains(x) }\n",
            ),
        ]);
        assert_eq!(
            resolved_edges(&w),
            [(
                "catapult_eval::basic::run".to_string(),
                "catapult_graph::iso::contains".to_string()
            )]
        );
    }

    #[test]
    fn use_imports_resolve_free_calls_cross_crate() {
        let w = ws(&[
            (
                "crates/graph/src/iso.rs",
                "pub fn embeddings(a: u32) -> u32 { a }\npub fn other(a: u32) -> u32 { a }\n",
            ),
            (
                "crates/eval/src/steps.rs",
                "use catapult_graph::iso::{embeddings, other as o};\n\
                 pub fn run(x: u32) -> u32 { embeddings(x) + o(x) }\n",
            ),
        ]);
        let edges = resolved_edges(&w);
        assert!(edges.contains(&(
            "catapult_eval::steps::run".into(),
            "catapult_graph::iso::embeddings".into()
        )));
        assert!(
            edges.contains(&(
                "catapult_eval::steps::run".into(),
                "catapult_graph::iso::other".into()
            )),
            "`as` alias resolves: {edges:?}"
        );
    }

    #[test]
    fn shadowed_local_fn_wins_over_import_and_module() {
        let w = ws(&[(
            "crates/a/src/lib.rs",
            "pub fn helper(x: u32) -> u32 { x }\n\
                 pub fn outer(x: u32) -> u32 {\n\
                     fn helper(x: u32) -> u32 { x + 1 }\n\
                     helper(x)\n\
                 }\n",
        )]);
        let outer = def_id(&w, "catapult_a::outer");
        let sites = w.calls_of(outer);
        assert_eq!(sites.len(), 1);
        let c = &w.calls[sites[0]];
        let Callee::Resolved(t) = c.callee else {
            panic!("unresolved: {c:?}")
        };
        assert_eq!(w.defs[t].parent, Some(outer), "nested fn shadows module fn");
    }

    #[test]
    fn method_name_ambiguity_is_reported_not_guessed() {
        let w = ws(&[(
            "crates/a/src/lib.rs",
            "pub struct A;\nimpl A { pub fn score(&self, x: u32) -> u32 { x } }\n\
                 pub struct B;\nimpl B { pub fn score(&self, x: u32) -> u32 { x + 1 } }\n\
                 pub fn use_both(v: u32) -> u32 { unknown_recv().score(v) }\n\
                 fn unknown_recv() -> u32 { 0 }\n",
        )]);
        let amb: Vec<&CallSite> = w
            .calls
            .iter()
            .filter(|c| matches!(c.callee, Callee::Ambiguous(_)))
            .collect();
        assert_eq!(amb.len(), 1, "calls: {:?}", w.calls);
        assert_eq!(amb[0].name, "score");
        let Callee::Ambiguous(ts) = &amb[0].callee else {
            unreachable!()
        };
        assert_eq!(ts.len(), 2);
    }

    #[test]
    fn self_and_field_receivers_resolve() {
        let w = ws(&[(
            "crates/a/src/lib.rs",
            "pub struct Inner;\n\
             impl Inner { pub fn tick(&self) -> u32 { 1 } }\n\
             pub struct Outer { inner: Inner }\n\
             impl Outer {\n\
                 pub fn go(&self) -> u32 { self.inner.tick() + self.twice() }\n\
                 fn twice(&self) -> u32 { 2 }\n\
             }\n",
        )]);
        let edges = resolved_edges(&w);
        assert!(
            edges.contains(&(
                "catapult_a::Outer::go".into(),
                "catapult_a::Inner::tick".into()
            )),
            "self.field receiver: {edges:?}"
        );
        assert!(
            edges.contains(&(
                "catapult_a::Outer::go".into(),
                "catapult_a::Outer::twice".into()
            )),
            "self receiver: {edges:?}"
        );
    }

    #[test]
    fn local_let_bindings_type_method_calls() {
        let w = ws(&[(
            "crates/a/src/lib.rs",
            "pub struct Meter;\n\
             impl Meter {\n\
                 pub fn new() -> Meter { Meter }\n\
                 pub fn tripped(&self) -> bool { false }\n\
             }\n\
             pub fn run() -> bool {\n\
                 let m = Meter::new();\n\
                 m.tripped()\n\
             }\n",
        )]);
        let edges = resolved_edges(&w);
        assert!(
            edges.contains(&("catapult_a::run".into(), "catapult_a::Meter::new".into())),
            "Type::assoc call: {edges:?}"
        );
        assert!(
            edges.contains(&(
                "catapult_a::run".into(),
                "catapult_a::Meter::tripped".into()
            )),
            "let-bound receiver: {edges:?}"
        );
    }

    #[test]
    fn struct_fields_and_budget_like_fixpoint_inputs() {
        let w = ws(&[(
            "crates/a/src/lib.rs",
            "pub struct SearchBudget { nodes: u64 }\n\
             pub struct Config { pub budget: SearchBudget, pub name: String }\n",
        )]);
        let cfg = w.struct_named("Config", None).expect("indexed");
        assert_eq!(cfg.fields.len(), 2);
        assert_eq!(cfg.fields[0].principal, "SearchBudget");
        assert_eq!(cfg.fields[1].principal, "String");
    }

    #[test]
    fn test_gated_defs_are_flagged_and_their_calls_skipped() {
        let w = ws(&[(
            "crates/a/src/lib.rs",
            "pub fn prod() -> u32 { 1 }\n\
             #[cfg(test)]\nmod tests { fn t() { super::prod(); } }\n",
        )]);
        let t = w.defs.iter().find(|d| d.name == "t").expect("indexed");
        assert!(t.in_test);
        assert!(w.calls.is_empty(), "test-code calls are not graphed");
    }

    #[test]
    fn pub_arity_and_self_shapes() {
        let w = ws(&[(
            "crates/a/src/lib.rs",
            "pub(crate) fn two(a: u32, b: Vec<(u32, u32)>) -> u32 { a + b.len() as u32 }\n\
             struct S;\n\
             impl S { fn m(&mut self, x: u32) -> u32 { x } }\n",
        )]);
        let two = &w.defs[def_id(&w, "catapult_a::two")];
        assert!(two.is_pub);
        assert_eq!(two.arity, 2, "generic commas do not split params");
        assert!(!two.has_self);
        let m = &w.defs[def_id(&w, "catapult_a::S::m")];
        assert!(!m.is_pub);
        assert_eq!(m.arity, 1);
        assert!(m.has_self);
    }
}
