// Lint policy: see [workspace.lints] in the root Cargo.toml.
// Unit tests are allowed the ergonomic panicking shortcuts the binary
// itself forbids; the policy targets production code paths only.
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used, clippy::panic))]

//! Workspace automation. `cargo xtask lint` drives the token-level
//! analyzer in `crates/catalint` (see DESIGN.md §12):
//!
//! ```text
//! cargo xtask lint                      # human-readable report
//! cargo xtask lint --json report.json   # also write the JSON artifact
//! cargo xtask lint --rule hash-iter-order,float-eq --rule budget-threading
//! cargo xtask lint --callgraph cg.json  # export the workspace call graph
//! cargo xtask lint --callgraph-dot cg.dot
//! ```
//!
//! Exit codes: `0` clean (no findings, or only ones an inline
//! `// xtask-allow: <rule>` marker suppresses), `1` active findings or a
//! lint over `--time-budget-ms`, `2` usage or I/O errors.

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

const USAGE: &str = "usage: cargo xtask lint [--json PATH] [--rule NAME[,NAME]...]... \
[--callgraph PATH] [--callgraph-dot PATH] [--taint-graph PATH] [--taint-graph-dot PATH] \
[--timing] [--time-budget-ms N]";

/// Parsed `lint` subcommand options.
#[derive(Debug, Default, PartialEq, Eq)]
struct LintOpts {
    /// Write the JSON report here.
    json: Option<PathBuf>,
    /// Run only these rules (empty → all).
    rules: Vec<String>,
    /// Write the workspace call graph as JSON here.
    callgraph: Option<PathBuf>,
    /// Write the workspace call graph as Graphviz DOT here.
    callgraph_dot: Option<PathBuf>,
    /// Write the nondeterminism taint graph as JSON here.
    taint_graph: Option<PathBuf>,
    /// Write the nondeterminism taint graph as Graphviz DOT here.
    taint_graph_dot: Option<PathBuf>,
    /// Print a per-rule wall-clock breakdown after the report.
    timing: bool,
    /// Fail (exit 1) when the timed rules exceed this budget. Implies
    /// `--timing`.
    time_budget_ms: Option<u64>,
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
            "--callgraph" => {
                let path = it.next().ok_or("--callgraph requires a PATH argument")?;
                opts.callgraph = Some(PathBuf::from(path));
            }
            "--callgraph-dot" => {
                let path = it
                    .next()
                    .ok_or("--callgraph-dot requires a PATH argument")?;
                opts.callgraph_dot = Some(PathBuf::from(path));
            }
            "--taint-graph" => {
                let path = it.next().ok_or("--taint-graph requires a PATH argument")?;
                opts.taint_graph = Some(PathBuf::from(path));
            }
            "--taint-graph-dot" => {
                let path = it
                    .next()
                    .ok_or("--taint-graph-dot requires a PATH argument")?;
                opts.taint_graph_dot = Some(PathBuf::from(path));
            }
            "--timing" => opts.timing = true,
            "--time-budget-ms" => {
                let ms = it.next().ok_or("--time-budget-ms requires a number")?;
                opts.time_budget_ms = Some(
                    ms.parse::<u64>()
                        .map_err(|_| format!("--time-budget-ms got a bad number `{ms}`"))?,
                );
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
    let timing = opts.timing || opts.time_budget_ms.is_some();
    let analysis = match catalint::analyze_timed(&root, &enabled, timing) {
        Ok(a) => a,
        Err(err) => {
            eprintln!("xtask lint: scan failed: {err}");
            return ExitCode::from(2);
        }
    };
    let catalint::Analysis {
        report,
        workspace,
        timings,
    } = analysis;

    if let Some(path) = &opts.callgraph {
        let text = workspace.callgraph_json().render();
        if let Err(err) = std::fs::write(path, text + "\n") {
            eprintln!("xtask lint: cannot write {}: {err}", path.display());
            return ExitCode::from(2);
        }
    }
    if let Some(path) = &opts.callgraph_dot {
        if let Err(err) = std::fs::write(path, workspace.callgraph_dot()) {
            eprintln!("xtask lint: cannot write {}: {err}", path.display());
            return ExitCode::from(2);
        }
    }
    if opts.taint_graph.is_some() || opts.taint_graph_dot.is_some() {
        let graph = catalint::taint::TaintGraph::compute(&workspace);
        if let Some(path) = &opts.taint_graph {
            let text = graph.to_json(&workspace).render();
            if let Err(err) = std::fs::write(path, text + "\n") {
                eprintln!("xtask lint: cannot write {}: {err}", path.display());
                return ExitCode::from(2);
            }
        }
        if let Some(path) = &opts.taint_graph_dot {
            if let Err(err) = std::fs::write(path, graph.to_dot(&workspace)) {
                eprintln!("xtask lint: cannot write {}: {err}", path.display());
                return ExitCode::from(2);
            }
        }
    }

    if let Some(path) = &opts.json {
        let text = report.to_json().render();
        if let Err(err) = std::fs::write(path, text + "\n") {
            eprintln!("xtask lint: cannot write {}: {err}", path.display());
            return ExitCode::from(2);
        }
    }

    let rendered = report.render_human();
    let failing = report.active().next().is_some();
    if failing {
        eprint!("{rendered}");
    } else {
        print!("{rendered}");
    }

    let mut over_budget = false;
    if timing {
        let total: std::time::Duration = timings.iter().map(|(_, d)| *d).sum();
        println!("catalint timing ({} timed rule(s)):", timings.len());
        for (rule, dur) in &timings {
            println!("    {:<24} {:>9.3}ms", rule, dur.as_secs_f64() * 1e3);
        }
        println!("    {:<24} {:>9.3}ms", "total", total.as_secs_f64() * 1e3);
        if let Some(budget) = opts.time_budget_ms {
            let total_ms = total.as_millis();
            if total_ms > u128::from(budget) {
                eprintln!("xtask lint: time budget exceeded: {total_ms}ms > {budget}ms");
                over_budget = true;
            } else {
                println!("xtask lint: within time budget ({total_ms}ms <= {budget}ms)");
            }
        }
    }

    if failing || over_budget {
        ExitCode::FAILURE
    } else {
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
            "float-eq",
            "--json",
            "out.json",
            "--rule",
            "lock-order",
            "--callgraph",
            "cg.json",
            "--callgraph-dot",
            "cg.dot",
        ]))
        .expect("parses");
        assert_eq!(opts.json.as_deref(), Some(Path::new("out.json")));
        assert_eq!(opts.rules, s(&["float-eq", "lock-order"]));
        assert_eq!(opts.callgraph.as_deref(), Some(Path::new("cg.json")));
        assert_eq!(opts.callgraph_dot.as_deref(), Some(Path::new("cg.dot")));
    }

    #[test]
    fn rule_lists_split_on_commas() {
        let opts = parse_lint_args(&s(&[
            "--rule",
            "float-eq, lock-order",
            "--rule",
            "budget-threading",
        ]))
        .expect("parses");
        assert_eq!(
            opts.rules,
            s(&["float-eq", "lock-order", "budget-threading"])
        );
        assert!(parse_lint_args(&s(&["--rule", "float-eq,,lock-order"])).is_err());
        assert!(parse_lint_args(&s(&["--rule", ","])).is_err());
    }

    #[test]
    fn rejects_missing_values_and_unknown_flags() {
        assert!(parse_lint_args(&s(&["--json"])).is_err());
        assert!(parse_lint_args(&s(&["--rule"])).is_err());
        assert!(parse_lint_args(&s(&["--callgraph"])).is_err());
        assert!(parse_lint_args(&s(&["--callgraph-dot"])).is_err());
        assert!(parse_lint_args(&s(&["--taint-graph"])).is_err());
        assert!(parse_lint_args(&s(&["--taint-graph-dot"])).is_err());
        assert!(parse_lint_args(&s(&["--time-budget-ms"])).is_err());
        assert!(parse_lint_args(&s(&["--time-budget-ms", "lots"])).is_err());
        assert!(parse_lint_args(&s(&["--time-budget-ms", "-5"])).is_err());
        assert!(parse_lint_args(&s(&["--frobnicate"])).is_err());
        assert!(parse_lint_args(&s(&["--update-baseline"])).is_err());
    }

    #[test]
    fn taint_and_timing_flags_parse() {
        let opts = parse_lint_args(&s(&[
            "--taint-graph",
            "tg.json",
            "--taint-graph-dot",
            "tg.dot",
            "--timing",
            "--time-budget-ms",
            "60000",
        ]))
        .expect("parses");
        assert_eq!(opts.taint_graph.as_deref(), Some(Path::new("tg.json")));
        assert_eq!(opts.taint_graph_dot.as_deref(), Some(Path::new("tg.dot")));
        assert!(opts.timing);
        assert_eq!(opts.time_budget_ms, Some(60_000));

        let bare = parse_lint_args(&[]).expect("parses");
        assert!(!bare.timing);
        assert_eq!(bare.time_budget_ms, None);
    }
}
