// Unit tests are allowed the ergonomic panicking shortcuts the binary
// itself forbids; the policy targets production code paths only.
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used, clippy::panic))]

//! Workspace automation. `cargo xtask lint` drives the token-level
//! analyzer in `crates/catalint` (see DESIGN.md §12); its one output is
//! the findings report:
//!
//! ```text
//! cargo xtask lint                      # human-readable report
//! cargo xtask lint --json report.json   # also write the JSON artifact
//! cargo xtask lint --rule taint,metric-name --rule budget-threading
//! ```
//!
//! Exit codes: `0` clean (no findings, or only ones an inline
//! `// xtask-allow: <rule>` marker suppresses), `1` active findings,
//! `2` usage or I/O errors (any flag but `--json` and `--rule`).

use std::path::PathBuf;
use std::process::ExitCode;

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match argv.first().map(String::as_str) {
        Some("lint") => match parse_lint_args(&argv[1..]) {
            Ok(opts) => lint(&opts),
            Err(msg) => {
                eprintln!("xtask lint: {msg}");
                eprintln!("{USAGE}");
                ExitCode::from(2)
            }
        },
        other => {
            eprintln!("got {:?}\n{USAGE}", other.unwrap_or("<nothing>"));
            ExitCode::from(2)
        }
    }
}

const USAGE: &str = "usage: cargo xtask lint [--json PATH] [--rule NAME[,NAME]...]...";

/// Parsed `lint` subcommand options.
#[derive(Debug, Default, PartialEq, Eq)]
struct LintOpts {
    /// Write the JSON report here.
    json: Option<PathBuf>,
    /// Run only these rules (empty → all).
    rules: Vec<String>,
}

fn parse_lint_args(args: &[String]) -> Result<LintOpts, String> {
    let mut opts = LintOpts::default();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--json" => {
                let path = it.next().ok_or("--json requires a PATH argument")?;
                opts.json = Some(PathBuf::from(path));
            }
            "--rule" => {
                let names = it.next().ok_or("--rule requires a NAME argument")?;
                for name in names.split(',') {
                    let name = name.trim();
                    if name.is_empty() {
                        return Err(format!("--rule got an empty name in `{names}`"));
                    }
                    opts.rules.push(name.to_string());
                }
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(opts)
}

fn lint(opts: &LintOpts) -> ExitCode {
    let root = workspace_root();
    let enabled = match catalint::enabled_rules(&opts.rules) {
        Ok(on) => on,
        Err(msg) => {
            eprintln!("xtask lint: {msg}");
            return ExitCode::from(2);
        }
    };
    let report = match catalint::analyze(&root, &enabled) {
        Ok(a) => a.report,
        Err(err) => {
            eprintln!("xtask lint: scan failed: {err}");
            return ExitCode::from(2);
        }
    };

    if let Some(path) = &opts.json {
        let text = report.to_json().render();
        if let Err(err) = std::fs::write(path, text + "\n") {
            eprintln!("xtask lint: cannot write {}: {err}", path.display());
            return ExitCode::from(2);
        }
    }

    let rendered = report.render_human();
    if report.active().next().is_some() {
        eprint!("{rendered}");
        ExitCode::FAILURE
    } else {
        print!("{rendered}");
        ExitCode::SUCCESS
    }
}

/// Locate the workspace root: walk up from CWD until `Cargo.toml` with a
/// `[workspace]` table is found. `cargo xtask` runs from the root, but a
/// direct `cargo run -p xtask` from a crate directory also works.
fn workspace_root() -> PathBuf {
    let mut dir = std::env::current_dir().unwrap_or_else(|_| PathBuf::from("."));
    loop {
        let manifest = dir.join("Cargo.toml");
        if let Ok(text) = std::fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return dir;
            }
        }
        if !dir.pop() {
            return PathBuf::from(".");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::Path;

    fn s(v: &[&str]) -> Vec<String> {
        v.iter().map(|x| (*x).to_string()).collect()
    }

    #[test]
    fn parses_flags_in_any_order() {
        let opts = parse_lint_args(&s(&[
            "--rule",
            "metric-name",
            "--json",
            "out.json",
            "--rule",
            "lock-order-xfn",
        ]))
        .expect("parses");
        assert_eq!(opts.json.as_deref(), Some(Path::new("out.json")));
        assert_eq!(opts.rules, s(&["metric-name", "lock-order-xfn"]));
        assert_eq!(parse_lint_args(&[]), Ok(LintOpts::default()));
    }

    #[test]
    fn rule_lists_split_on_commas() {
        let opts = parse_lint_args(&s(&[
            "--rule",
            "metric-name, lock-order-xfn",
            "--rule",
            "budget-threading",
        ]))
        .expect("parses");
        assert_eq!(
            opts.rules,
            s(&["metric-name", "lock-order-xfn", "budget-threading"])
        );
        assert!(parse_lint_args(&s(&["--rule", "metric-name,,lock-order-xfn"])).is_err());
        assert!(parse_lint_args(&s(&["--rule", ","])).is_err());
    }

    #[test]
    fn rejects_missing_values_and_unknown_flags() {
        assert!(parse_lint_args(&s(&["--json"])).is_err());
        assert!(parse_lint_args(&s(&["--rule"])).is_err());
        assert!(parse_lint_args(&s(&["--frobnicate"])).is_err());
        assert!(parse_lint_args(&s(&["--update-baseline"])).is_err());
    }

    #[test]
    fn retired_export_and_timing_flags_are_unknown() {
        for args in [
            &["--callgraph", "x"][..],
            &["--callgraph-dot", "x"],
            &["--taint-graph", "x"],
            &["--taint-graph-dot", "x"],
            &["--timing"],
            &["--time-budget-ms", "5"],
        ] {
            let err = parse_lint_args(&s(args)).expect_err("retired flag");
            assert_eq!(err, format!("unknown argument `{}`", args[0]));
        }
    }
}
