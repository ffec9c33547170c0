//! Per-file token-tree model the rules run against.
//!
//! [`SourceFile`] wraps the lexed token stream of one `.rs` file with the
//! derived structure every rule needs:
//!
//! - a **code view**: indices of non-trivia tokens, so rules reason about
//!   adjacent *code* tokens and never see comments or whitespace;
//! - a **token tree** in flat form: for every `(`/`[`/`{` the index of
//!   its matching closer (and vice versa) plus a nesting depth per
//!   token — enough to skip a whole block, find statement boundaries, or
//!   resolve an enclosing scope without materializing a nested tree;
//! - a `#[cfg(test)]` **mask** covering each test-gated item including
//!   its attribute stack and body, so rules skip test code wherever it
//!   sits in the file (the line-based pass could only stop at the first
//!   match and missed everything after a test module that preceded
//!   production code);
//! - the `// xtask-allow: <rule>` **escape hatch**, parsed from comment
//!   tokens (same line as the finding or the line directly above;
//!   comma-separated rule lists are accepted).
//!
//! Indices named `ci` below address the code view, not the raw stream.

use crate::diag::Diagnostic;
use crate::lexer::{lex, Token, TokenKind};
use std::collections::BTreeMap;

/// A lexed source file plus the derived token-tree structure.
#[derive(Debug)]
pub struct SourceFile {
    /// Workspace-relative path with forward slashes (diagnostic identity).
    pub rel: String,
    /// The raw source text.
    pub text: String,
    /// The full gapless token stream.
    pub tokens: Vec<Token>,
    /// Indices into `tokens` of non-trivia tokens, in order.
    code: Vec<usize>,
    /// Per code index: the code index of the matching delimiter.
    match_of: Vec<Option<usize>>,
    /// Per code index: brace/paren/bracket nesting depth (a closer shares
    /// its opener's depth; inner tokens are one deeper).
    depth: Vec<usize>,
    /// Per code index: true when inside a `#[cfg(test)]`-gated item.
    test_mask: Vec<bool>,
    /// Byte offset of each line start (line 1 is index 0).
    line_starts: Vec<usize>,
    /// Line number → `(rule, justification)` pairs allowed on that line
    /// via `xtask-allow`. The justification is the free text following
    /// the rule list in the same marker (empty when none was written).
    allows: BTreeMap<usize, Vec<(String, String)>>,
    /// Every `fn` definition in the file, in source order.
    fn_spans: Vec<FnSpan>,
}

/// The lexical extent of one `fn` definition (used for the enclosing-fn
/// field of diagnostics and by the symbol index).
#[derive(Clone, Debug)]
pub struct FnSpan {
    /// Code index of the `fn` keyword.
    pub kw: usize,
    /// Code index of the name identifier.
    pub name_ci: usize,
    /// Code index of the body `{` (None for a body-less declaration).
    pub open: Option<usize>,
    /// Code index of the body `}` (None for a body-less declaration).
    pub close: Option<usize>,
    /// Last code index belonging to the definition (body `}` when present,
    /// else the terminating `;` — or the signature's end at EOF).
    pub end: usize,
}

/// The escape-hatch marker inside a comment.
const ALLOW_MARKER: &str = "xtask-allow:";

/// Strip separators and comment furniture off a marker's trailing free
/// text: the `-- why` convention, stray dashes/colons, and a block
/// comment's closing `*/`.
fn clean_justification(raw: &str) -> String {
    raw.trim()
        .trim_end_matches("*/")
        .trim_matches(|c: char| {
            c.is_whitespace() || matches!(c, '-' | '—' | ':' | ';' | '(' | ')' | '.')
        })
        .to_string()
}

impl SourceFile {
    /// Lex and index `text` as the file at workspace-relative `rel`.
    #[must_use]
    pub fn parse(rel: String, text: String) -> SourceFile {
        let tokens = lex(&text);
        let code: Vec<usize> = (0..tokens.len())
            .filter(|&i| !tokens[i].is_trivia())
            .collect();

        let mut line_starts = vec![0usize];
        for (i, b) in text.bytes().enumerate() {
            if b == b'\n' {
                line_starts.push(i + 1);
            }
        }

        let mut f = SourceFile {
            rel,
            text,
            tokens,
            code,
            match_of: Vec::new(),
            depth: Vec::new(),
            test_mask: Vec::new(),
            line_starts,
            allows: BTreeMap::new(),
            fn_spans: Vec::new(),
        };
        f.build_tree();
        f.build_test_mask();
        f.build_allows();
        f.build_fn_spans();
        f
    }

    /// Locate every `fn` definition: keyword, name, and body range. A
    /// `fn` token immediately followed by `(` is a fn-pointer type, not a
    /// definition, and is skipped. The body `{` is the first brace at the
    /// keyword's own nesting depth (generics and parameter lists nest
    /// deeper or use unmatched `<`/`>`, which the delimiter tree ignores);
    /// a `;` first means a body-less trait declaration.
    fn build_fn_spans(&mut self) {
        let n = self.code.len();
        let mut spans = Vec::new();
        for kw in 0..n {
            if !self.is_ident(kw, "fn") || kw + 1 >= n || self.ckind(kw + 1) != TokenKind::Ident {
                continue;
            }
            let d = self.depth[kw];
            let (mut open, mut close) = (None, None);
            let mut end = kw + 1;
            let mut j = kw + 2;
            while j < n {
                if self.depth[j] < d {
                    break;
                }
                if self.depth[j] == d {
                    if self.is_punct(j, ";") {
                        end = j;
                        break;
                    }
                    if self.is_punct(j, "{") {
                        open = Some(j);
                        close = self.match_of[j];
                        end = close.unwrap_or(n - 1);
                        break;
                    }
                }
                end = j;
                j += 1;
            }
            spans.push(FnSpan {
                kw,
                name_ci: kw + 1,
                open,
                close,
                end,
            });
        }
        self.fn_spans = spans;
    }

    /// Every `fn` definition in the file, in source order.
    #[must_use]
    pub fn fn_spans(&self) -> &[FnSpan] {
        &self.fn_spans
    }

    /// Name of the innermost `fn` whose definition contains code token
    /// `ci` (None at file scope). Nested fns shadow their parent.
    #[must_use]
    pub fn enclosing_fn(&self, ci: usize) -> Option<&str> {
        let mut best: Option<&FnSpan> = None;
        for s in &self.fn_spans {
            if s.kw <= ci && ci <= s.end {
                best = match best {
                    Some(b) if b.kw >= s.kw => Some(b),
                    _ => Some(s),
                };
            }
        }
        best.map(|s| self.ctext(s.name_ci))
    }

    fn build_tree(&mut self) {
        let n = self.code.len();
        self.match_of = vec![None; n];
        self.depth = vec![0; n];
        let mut stack: Vec<usize> = Vec::new();
        for ci in 0..n {
            match self.ctext(ci) {
                "(" | "[" | "{" => {
                    self.depth[ci] = stack.len();
                    stack.push(ci);
                }
                ")" | "]" | "}" => {
                    if let Some(open) = stack.pop() {
                        self.match_of[open] = Some(ci);
                        self.match_of[ci] = Some(open);
                    }
                    self.depth[ci] = stack.len();
                }
                _ => self.depth[ci] = stack.len(),
            }
        }
    }

    /// Mark every token belonging to a `#[cfg(test)]`-gated item: the
    /// attribute itself, any further attributes stacked below it, and the
    /// item through its closing `}` (or `;` for brace-less items).
    fn build_test_mask(&mut self) {
        let n = self.code.len();
        self.test_mask = vec![false; n];
        let mut ci = 0usize;
        while ci + 1 < n {
            if !(self.is_punct(ci, "#") && self.is_punct(ci + 1, "[")) {
                ci += 1;
                continue;
            }
            let Some(close) = self.match_of[ci + 1] else {
                ci += 1;
                continue;
            };
            if !self.attr_is_cfg_test(ci + 2, close) {
                ci = close + 1;
                continue;
            }
            // Skip any further stacked attributes.
            let mut item = close + 1;
            while item + 1 < n && self.is_punct(item, "#") && self.is_punct(item + 1, "[") {
                match self.match_of[item + 1] {
                    Some(c) => item = c + 1,
                    None => break,
                }
            }
            // The item runs through the matching `}` of its first
            // same-depth `{`, or through a terminating `;`.
            let item_depth = self.depth.get(item).copied().unwrap_or(0);
            let mut end = item;
            let mut j = item;
            while j < n {
                if self.depth[j] == item_depth {
                    if self.is_punct(j, "{") {
                        end = self.match_of[j].unwrap_or(n - 1);
                        break;
                    }
                    if self.is_punct(j, ";") {
                        end = j;
                        break;
                    }
                }
                if self.depth[j] < item_depth {
                    end = j;
                    break;
                }
                end = j;
                j += 1;
            }
            for m in &mut self.test_mask[ci..=end.min(n - 1)] {
                *m = true;
            }
            ci = end + 1;
        }
    }

    /// Does the attribute body `[from, to)` spell a test gate? Accepts
    /// `cfg(test)` and compound forms like `cfg(all(test, …))`.
    fn attr_is_cfg_test(&self, from: usize, to: usize) -> bool {
        if from >= to || !self.is_ident(from, "cfg") {
            return false;
        }
        (from + 1..to).any(|ci| self.is_ident(ci, "test"))
    }

    fn build_allows(&mut self) {
        for t in &self.tokens {
            if !matches!(t.kind, TokenKind::LineComment | TokenKind::BlockComment) {
                continue;
            }
            let body = t.text(&self.text);
            let mut rules: Vec<(String, String)> = Vec::new();
            let mut rest = body;
            while let Some(at) = rest.find(ALLOW_MARKER) {
                rest = &rest[at + ALLOW_MARKER.len()..];
                // Parse a comma-separated list of rule names. A candidate
                // with no letter (e.g. the `--` justification separator)
                // ends the list rather than joining it.
                let mut names: Vec<String> = Vec::new();
                loop {
                    let trimmed = rest.trim_start();
                    let name: String = trimmed
                        .chars()
                        .take_while(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || *c == '-')
                        .collect();
                    if name.is_empty() || !name.bytes().any(|b| b.is_ascii_lowercase()) {
                        break;
                    }
                    rest = &trimmed[name.len()..];
                    names.push(name);
                    match rest.trim_start().strip_prefix(',') {
                        Some(after) => rest = after,
                        None => break,
                    }
                }
                // Everything up to the next marker (or the comment's end)
                // is this marker's justification, shared by its rules.
                let j_end = rest.find(ALLOW_MARKER).unwrap_or(rest.len());
                let just = clean_justification(&rest[..j_end]);
                for name in names {
                    rules.push((name, just.clone()));
                }
            }
            if rules.is_empty() {
                continue;
            }
            let (first, _) = self.offset_line_col(t.start);
            let (last, _) = self.offset_line_col(t.end.saturating_sub(1).max(t.start));
            for line in first..=last {
                self.allows
                    .entry(line)
                    .or_default()
                    .extend(rules.iter().cloned());
            }
        }
    }

    // ---- code-view accessors -------------------------------------------

    /// Number of code (non-trivia) tokens.
    #[must_use]
    pub fn n_code(&self) -> usize {
        self.code.len()
    }

    /// The code token at `ci`.
    #[must_use]
    pub fn ctok(&self, ci: usize) -> Token {
        self.tokens[self.code[ci]]
    }

    /// Text of the code token at `ci`.
    #[must_use]
    pub fn ctext(&self, ci: usize) -> &str {
        self.tokens[self.code[ci]].text(&self.text)
    }

    /// Kind of the code token at `ci`.
    #[must_use]
    pub fn ckind(&self, ci: usize) -> TokenKind {
        self.tokens[self.code[ci]].kind
    }

    /// Is `ci` an identifier with exactly this text?
    #[must_use]
    pub fn is_ident(&self, ci: usize, s: &str) -> bool {
        ci < self.code.len() && self.ckind(ci) == TokenKind::Ident && self.ctext(ci) == s
    }

    /// Is `ci` punctuation with exactly this text?
    #[must_use]
    pub fn is_punct(&self, ci: usize, s: &str) -> bool {
        ci < self.code.len() && self.ckind(ci) == TokenKind::Punct && self.ctext(ci) == s
    }

    /// Nesting depth of the code token at `ci`.
    #[must_use]
    pub fn cdepth(&self, ci: usize) -> usize {
        self.depth[ci]
    }

    /// Matching delimiter of the code token at `ci`, when it is one.
    #[must_use]
    pub fn cmatch(&self, ci: usize) -> Option<usize> {
        self.match_of.get(ci).copied().flatten()
    }

    /// Is the code token at `ci` inside a `#[cfg(test)]`-gated item?
    #[must_use]
    pub fn in_test(&self, ci: usize) -> bool {
        self.test_mask.get(ci).copied().unwrap_or(false)
    }

    // ---- positions and lines -------------------------------------------

    /// 1-based `(line, col)` of a byte offset.
    #[must_use]
    pub fn offset_line_col(&self, offset: usize) -> (usize, usize) {
        let line = match self.line_starts.binary_search(&offset) {
            Ok(i) => i,
            Err(i) => i.saturating_sub(1),
        };
        (line + 1, offset - self.line_starts[line] + 1)
    }

    /// 1-based `(line, col)` of the code token at `ci`.
    #[must_use]
    pub fn cpos(&self, ci: usize) -> (usize, usize) {
        self.offset_line_col(self.ctok(ci).start)
    }

    /// A `rule` finding at code token `ci`, allowed when an
    /// `xtask-allow` marker names the rule on its line or the one above.
    #[must_use]
    pub fn diagnostic(&self, ci: usize, rule: &'static str, message: String) -> Diagnostic {
        let (line, col) = self.cpos(ci);
        Diagnostic {
            rule,
            path: self.rel.clone(),
            line,
            col,
            snippet: self.line_snippet(line),
            enclosing_fn: self.enclosing_fn(ci).unwrap_or_default().to_string(),
            message,
            allowed: self.allowed(line, rule),
        }
    }

    /// The trimmed text of a 1-based line, truncated for display.
    #[must_use]
    pub fn line_snippet(&self, line: usize) -> String {
        let Some(&start) = self.line_starts.get(line - 1) else {
            return String::new();
        };
        let end = self
            .line_starts
            .get(line)
            .map_or(self.text.len(), |&e| e.saturating_sub(1));
        let mut s = self.text.get(start..end).unwrap_or("").trim().to_string();
        if s.len() > 160 {
            let mut cut = 160;
            while cut > 0 && !s.is_char_boundary(cut) {
                cut -= 1;
            }
            s.truncate(cut);
            s.push('…');
        }
        s
    }

    /// Is `rule` allowed (escape hatch) for a finding on 1-based `line`?
    /// The marker may sit on the finding's line or the line directly
    /// above.
    #[must_use]
    pub fn allowed(&self, line: usize, rule: &str) -> bool {
        [line, line.saturating_sub(1)]
            .iter()
            .filter(|&&l| l > 0)
            .any(|l| {
                self.allows
                    .get(l)
                    .is_some_and(|rules| rules.iter().any(|(r, _)| r == rule))
            })
    }

    /// The justification attached to an `xtask-allow` marker covering
    /// `rule` on 1-based `line` (or the line above): `None` when no
    /// marker covers the rule, `Some("")` when a marker exists but
    /// carries no free text after the rule list. The exact line wins
    /// over the line above — a trailing marker on the previous statement
    /// never lends its justification downward past a closer marker.
    /// Rules with a mandatory sanctioning policy (taint) reject the
    /// empty case.
    #[must_use]
    pub fn allow_justification(&self, line: usize, rule: &str) -> Option<&str> {
        for l in [line, line.saturating_sub(1)] {
            if l == 0 {
                continue;
            }
            let Some(rules) = self.allows.get(&l) else {
                continue;
            };
            let mut found: Option<&str> = None;
            for (r, just) in rules {
                if r != rule {
                    continue;
                }
                if !just.is_empty() {
                    return Some(just);
                }
                found = Some("");
            }
            if found.is_some() {
                return found;
            }
        }
        None
    }

    // ---- statement structure -------------------------------------------

    /// The inclusive code-index range of the statement containing `ci`,
    /// bounded at the token's own nesting depth: backwards past the
    /// nearest `;`/`{`/`}` at that depth, forwards up to (and including)
    /// a terminating `;`, stopping *before* a block opener so a loop
    /// header or `if` condition scans without its body.
    #[must_use]
    pub fn stmt_range(&self, ci: usize) -> (usize, usize) {
        let d = self.depth[ci];
        let mut s = ci;
        while s > 0 {
            let p = s - 1;
            if self.depth[p] < d
                || (self.depth[p] == d
                    && (self.is_punct(p, ";") || self.is_punct(p, "{") || self.is_punct(p, "}")))
            {
                break;
            }
            s = p;
        }
        let mut e = ci;
        while e + 1 < self.code.len() {
            let q = e + 1;
            if self.depth[q] < d || (self.depth[q] == d && self.is_punct(q, "{")) {
                break;
            }
            if self.depth[q] == d && self.is_punct(q, ";") {
                e = q;
                break;
            }
            e = q;
        }
        (s, e)
    }

    /// Does any code token in the inclusive range satisfy `pred`?
    #[must_use]
    pub fn range_any(&self, range: (usize, usize), pred: impl FnMut(usize) -> bool) -> bool {
        (range.0..=range.1.min(self.code.len().saturating_sub(1))).any(pred)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn file(src: &str) -> SourceFile {
        SourceFile::parse("test.rs".into(), src.to_string())
    }

    #[test]
    fn delimiters_match_and_depths_nest() {
        let f = file("fn a() { b(c[0]); }");
        // code tokens: fn a ( ) { b ( c [ 0 ] ) ; }
        assert_eq!(f.cmatch(2), Some(3));
        assert_eq!(f.cmatch(4), Some(13));
        assert_eq!(f.cdepth(0), 0); // fn
        assert_eq!(f.cdepth(5), 1); // b
        assert_eq!(f.cdepth(9), 3); // 0
    }

    #[test]
    fn cfg_test_mask_covers_module_and_resumes_after() {
        let f = file(
            "fn prod1() {}\n\
             #[cfg(test)]\nmod tests { fn t() { x.unwrap(); } }\n\
             fn prod2() { y.unwrap(); }\n",
        );
        let mut masked = Vec::new();
        let mut unmasked = Vec::new();
        for ci in 0..f.n_code() {
            if f.is_ident(ci, "unwrap") {
                if f.in_test(ci) {
                    masked.push(ci);
                } else {
                    unmasked.push(ci);
                }
            }
        }
        assert_eq!(masked.len(), 1, "test-module unwrap is masked");
        assert_eq!(unmasked.len(), 1, "code after the test module is scanned");
    }

    #[test]
    fn cfg_test_mask_handles_stacked_attributes_and_compound_cfg() {
        let f = file("#[cfg(all(test, feature = \"x\"))]\n#[allow(dead_code)]\nfn t() { p(); }\n");
        for ci in 0..f.n_code() {
            assert!(f.in_test(ci), "token {} `{}` unmasked", ci, f.ctext(ci));
        }
        let g = file("#[cfg(feature = \"fast\")]\nfn not_test() { p(); }\n");
        assert!((0..g.n_code()).all(|ci| !g.in_test(ci)));
    }

    #[test]
    fn allow_markers_cover_line_and_line_above() {
        let f = file(
            "let a = 1; // xtask-allow: metric-name\n\
             // xtask-allow: panic-reachability, float-total-order\n\
             let b = 2;\n",
        );
        assert!(f.allowed(1, "metric-name"));
        assert!(!f.allowed(1, "panic-reachability"));
        assert!(f.allowed(3, "panic-reachability"), "line-above marker");
        assert!(f.allowed(3, "float-total-order"), "comma-separated list");
        assert!(!f.allowed(3, "metric-name"));
    }

    #[test]
    fn allow_markers_carry_justifications() {
        let f = file(
            "let a = x.lock(); // xtask-allow: taint -- cache stores pure values\n\
             let b = y.lock(); // xtask-allow: taint\n\
             /* xtask-allow: taint, lock-order-xfn -- one guard, no nesting */\n\
             let c = z.lock();\n",
        );
        assert_eq!(
            f.allow_justification(1, "taint"),
            Some("cache stores pure values"),
            "free text after `--` is the justification"
        );
        assert_eq!(
            f.allow_justification(2, "taint"),
            Some(""),
            "marker without text is allowed-but-unjustified"
        );
        assert_eq!(f.allow_justification(2, "metric-name"), None, "wrong rule");
        assert_eq!(
            f.allow_justification(4, "lock-order-xfn"),
            Some("one guard, no nesting"),
            "block comment justification shared across the rule list"
        );
        assert_eq!(
            f.allow_justification(4, "taint"),
            Some("one guard, no nesting")
        );
        assert!(
            f.allowed(1, "taint") && f.allowed(2, "taint"),
            "justification never changes plain allowed()"
        );
    }

    #[test]
    fn statement_ranges_stop_at_boundaries() {
        let f = file("fn a() { let x = m.iter().sum(); x.sort(); }");
        // Find `iter` and check its statement spans let..;
        let iter_ci = (0..f.n_code()).find(|&ci| f.is_ident(ci, "iter")).unwrap();
        let (s, e) = f.stmt_range(iter_ci);
        assert!(f.is_ident(s, "let"));
        assert!(f.is_punct(e, ";"));
        assert!(f.range_any((s, e), |ci| f.is_ident(ci, "sum")));
        assert!(!f.range_any((s, e), |ci| f.is_ident(ci, "sort")));
    }

    #[test]
    fn for_header_statement_stops_before_body() {
        let f = file("fn a() { for k in map.keys() { body(); } }");
        let for_ci = (0..f.n_code()).find(|&ci| f.is_ident(ci, "for")).unwrap();
        let (s, e) = f.stmt_range(for_ci);
        assert_eq!(s, for_ci);
        assert!(f.range_any((s, e), |ci| f.is_ident(ci, "keys")));
        assert!(!f.range_any((s, e), |ci| f.is_ident(ci, "body")));
    }

    #[test]
    fn fn_spans_cover_bodies_and_nesting() {
        let f = file(
            "fn outer() { fn inner() { x(); } inner(); }\n\
             trait T { fn decl(&self); }\n\
             type F = fn(u32) -> u32;\n",
        );
        let names: Vec<&str> = f.fn_spans().iter().map(|s| f.ctext(s.name_ci)).collect();
        assert_eq!(names, ["outer", "inner", "decl"], "fn-pointer type skipped");
        let x_ci = (0..f.n_code()).find(|&ci| f.is_ident(ci, "x")).unwrap();
        assert_eq!(f.enclosing_fn(x_ci), Some("inner"), "innermost wins");
        let call_ci = (x_ci + 1..f.n_code())
            .find(|&ci| f.is_ident(ci, "inner") && f.is_punct(ci + 1, "("))
            .unwrap();
        assert_eq!(f.enclosing_fn(call_ci), Some("outer"));
        assert_eq!(f.enclosing_fn(0), Some("outer"), "kw belongs to its fn");
        let decl = f.fn_spans().iter().find(|s| f.ctext(s.name_ci) == "decl");
        assert!(decl.is_some_and(|s| s.open.is_none()), "body-less decl");
    }

    #[test]
    fn positions_are_one_based() {
        let f = file("a\n  bb\n");
        let (l, c) = f.cpos(1);
        assert_eq!((l, c), (2, 3));
        assert_eq!(f.line_snippet(2), "bb");
    }
}
