//! Structured diagnostics and the run report.
//!
//! Every rule emits [`Diagnostic`] records — `{rule, path, line, col,
//! snippet, suppressed}` plus a human message — which render both as
//! `path:line:col: [rule] message` lines and as JSON through the
//! hand-rolled insertion-ordered serializer in `catapult_obs::json`
//! (the same layer the run manifests use, so CI artifacts stay
//! byte-stable and greppable).

use catapult_obs::json::Value;
use std::fmt::Write as _;

/// Schema version of the JSON report (`--json`). v2 added the
/// `fn` (enclosing function) field per finding; v3 added the
/// `summary.suppressed_by_rule` per-rule suppression breakdown; v4
/// dropped the grandfather-baseline fields (`baselined`,
/// `stale_baseline`, `suppressed_by`), leaving the inline allow as the
/// only way a finding is suppressed.
pub const REPORT_SCHEMA_VERSION: u64 = 4;

/// One finding at a source position.
#[derive(Clone, Debug)]
pub struct Diagnostic {
    /// Rule name (e.g. `metric-name`).
    pub rule: &'static str,
    /// Workspace-relative path with forward slashes.
    pub path: String,
    /// 1-based line of the offending token.
    pub line: usize,
    /// 1-based byte column of the offending token.
    pub col: usize,
    /// The trimmed source line (truncated for display).
    pub snippet: String,
    /// Name of the innermost enclosing `fn` (empty at file scope).
    pub enclosing_fn: String,
    /// What the rule objects to, with the sanctioned alternative.
    pub message: String,
    /// Suppressed by an inline `// xtask-allow: <rule>` marker: reported
    /// for the audit trail, but it does not fail the build.
    pub allowed: bool,
}

impl Diagnostic {
    fn to_json(&self) -> Value {
        let mut v = Value::object();
        v.set("rule", self.rule)
            .set("path", self.path.as_str())
            .set("line", self.line)
            .set("col", self.col)
            .set("fn", self.enclosing_fn.as_str())
            .set("message", self.message.as_str())
            .set("snippet", self.snippet.as_str())
            .set("suppressed", self.allowed);
        v
    }
}

/// The outcome of a lint run over the workspace.
#[derive(Debug, Default)]
pub struct Report {
    /// Every finding (active and allowed), in deterministic
    /// `(path, line, col, rule)` order.
    pub findings: Vec<Diagnostic>,
    /// Number of files scanned.
    pub files_scanned: usize,
    /// Rule names that ran (after `--rule` filtering), sorted.
    pub rules_run: Vec<&'static str>,
}

impl Report {
    /// Active (not allowed) findings — what fails the build.
    pub fn active(&self) -> impl Iterator<Item = &Diagnostic> {
        self.findings.iter().filter(|d| !d.allowed)
    }

    /// Number of findings suppressed by an inline allow.
    #[must_use]
    pub fn allowed(&self) -> usize {
        self.findings.iter().filter(|d| d.allowed).count()
    }

    /// Per-rule allowed counts, only for rules with at least one allowed
    /// finding. Sorted by rule name (`BTreeMap`), so both renderings
    /// below are deterministic.
    #[must_use]
    pub fn allowed_by_rule(&self) -> std::collections::BTreeMap<&'static str, usize> {
        let mut by_rule = std::collections::BTreeMap::new();
        for d in self.findings.iter().filter(|d| d.allowed) {
            *by_rule.entry(d.rule).or_default() += 1;
        }
        by_rule
    }

    /// Sort findings into the deterministic report order.
    pub fn finalize(&mut self) {
        self.findings.sort_by(|a, b| {
            (&a.path, a.line, a.col, a.rule).cmp(&(&b.path, b.line, b.col, b.rule))
        });
    }

    /// Human-readable report: one line per active finding, then a
    /// summary with the allowed counts per rule.
    #[must_use]
    pub fn render_human(&self) -> String {
        let mut out = String::new();
        for d in self.active() {
            let _ = writeln!(
                out,
                "{}:{}:{}: [{}] {}\n    {}",
                d.path, d.line, d.col, d.rule, d.message, d.snippet
            );
        }
        let _ = writeln!(
            out,
            "catalint: {} file(s), {} rule(s): {} active finding(s), {} allowed",
            self.files_scanned,
            self.rules_run.len(),
            self.active().count(),
            self.allowed(),
        );
        for (rule, allowed) in self.allowed_by_rule() {
            let _ = writeln!(out, "    suppressed [{rule}]: {allowed} allowed");
        }
        out
    }

    /// The JSON report (schema-versioned; rendered via `catapult_obs`).
    #[must_use]
    pub fn to_json(&self) -> Value {
        let mut rules = Value::array();
        for r in &self.rules_run {
            rules.push(*r);
        }
        let mut findings = Value::array();
        for d in &self.findings {
            findings.push(d.to_json());
        }
        let mut by_rule = Value::object();
        for (rule, allowed) in self.allowed_by_rule() {
            by_rule.set(rule, allowed);
        }
        let mut summary = Value::object();
        summary
            .set("total", self.findings.len())
            .set("active", self.active().count())
            .set("allowed", self.allowed())
            .set("suppressed_by_rule", by_rule);
        let mut v = Value::object();
        v.set("schema_version", REPORT_SCHEMA_VERSION)
            .set("tool", "catalint")
            .set("files_scanned", self.files_scanned)
            .set("rules", rules)
            .set("summary", summary)
            .set("findings", findings);
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diag(rule: &'static str, path: &str, line: usize, allowed: bool) -> Diagnostic {
        Diagnostic {
            rule,
            path: path.into(),
            line,
            col: 1,
            snippet: "let x = 1;".into(),
            enclosing_fn: "f".into(),
            message: "msg".into(),
            allowed,
        }
    }

    #[test]
    fn report_orders_and_counts() {
        let mut r = Report {
            findings: vec![
                diag("b-rule", "z.rs", 1, false),
                diag("a-rule", "a.rs", 9, true),
                diag("a-rule", "a.rs", 2, true),
            ],
            files_scanned: 3,
            rules_run: vec!["a-rule", "b-rule"],
        };
        r.finalize();
        assert_eq!(r.findings[0].line, 2);
        assert_eq!(r.active().count(), 1);
        assert_eq!(r.allowed(), 2);
        let human = r.render_human();
        assert!(human.contains("z.rs:1:1: [b-rule] msg"));
        assert!(!human.contains("a.rs:9"), "allowed findings not listed");
        assert!(human.contains("1 active finding(s), 2 allowed\n"));
    }

    #[test]
    fn json_shape_is_stable() {
        let mut r = Report {
            findings: vec![diag("a-rule", "a.rs", 1, true)],
            files_scanned: 1,
            rules_run: vec!["a-rule"],
        };
        r.finalize();
        let text = r.to_json().render();
        assert!(text.starts_with("{\n  \"schema_version\": 4"));
        assert!(text.contains("\"fn\": \"f\""));
        assert!(text.contains("\"suppressed\": true"));
        assert!(text.contains("\"suppressed_by_rule\""));
        for gone in ["baselined", "stale_baseline", "suppressed_by\":"] {
            assert!(!text.contains(gone), "v4 dropped `{gone}`: {text}");
        }
    }

    #[test]
    fn per_rule_suppression_breakdown() {
        let mut r = Report {
            findings: vec![
                diag("b-rule", "z.rs", 1, false),
                diag("a-rule", "a.rs", 2, true),
                diag("a-rule", "a.rs", 3, true),
                diag("c-rule", "c.rs", 1, true),
            ],
            files_scanned: 3,
            rules_run: vec!["a-rule", "b-rule", "c-rule"],
        };
        r.finalize();
        let by_rule = r.allowed_by_rule();
        assert_eq!(by_rule.get("a-rule"), Some(&2));
        assert_eq!(by_rule.get("c-rule"), Some(&1));
        assert_eq!(
            by_rule.get("b-rule"),
            None,
            "rules with only active findings are omitted"
        );
        let human = r.render_human();
        assert!(human.contains("suppressed [a-rule]: 2 allowed"));
        assert!(human.contains("suppressed [c-rule]: 1 allowed"));
        assert!(!human.contains("suppressed [b-rule]"));
        let json = r.to_json().render();
        assert!(json.contains("\"a-rule\": 2"));
    }
}
