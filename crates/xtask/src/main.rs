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
//! cargo xtask lint --update-baseline    # regenerate catalint.baseline.json
//! ```
//!
//! `cargo xtask bench-diff` is the perf-regression gate over the
//! `BENCH_kernels.json` manifests (see `bench_diff` and DESIGN.md §16):
//!
//! ```text
//! cargo xtask bench-diff OLD.json NEW.json
//! cargo xtask bench-diff --tolerance 50 OLD.json NEW.json
//! cargo xtask bench-diff --allow-cross-host BENCH_kernels.json new.json
//! ```
//!
//! Exit codes (both subcommands): `0` clean (or only allowed/baselined
//! findings), `1` active findings / perf regressions, `2` usage or I/O
//! errors. The lint baseline grandfathers findings by fingerprint — see
//! `crates/catalint/src/baseline.rs` for the matching semantics and
//! v1→v2 migration.

mod bench_diff;

use catalint::baseline::Baseline;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// Name of the checked-in grandfather file at the workspace root.
const BASELINE_FILE: &str = "catalint.baseline.json";

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
        Some("bench-diff") => match parse_bench_diff_args(&argv[1..]) {
            Ok((old, new, opts)) => run_bench_diff(&old, &new, &opts),
            Err(msg) => {
                eprintln!("xtask bench-diff: {msg}");
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
[--timing] [--time-budget-ms N] [--update-baseline]
       cargo xtask bench-diff [--tolerance PCT] [--allow-cross-host] \
[--deterministic-only] OLD.json NEW.json";

fn parse_bench_diff_args(
    args: &[String],
) -> Result<(PathBuf, PathBuf, bench_diff::DiffOpts), String> {
    let mut opts = bench_diff::DiffOpts::default();
    let mut positional: Vec<PathBuf> = Vec::new();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--tolerance" => {
                let pct = it.next().ok_or("--tolerance requires a PCT argument")?;
                opts.tolerance_pct = pct
                    .parse::<f64>()
                    .ok()
                    .filter(|p| p.is_finite() && *p >= 0.0)
                    .ok_or(format!("--tolerance got a bad percentage `{pct}`"))?;
            }
            "--allow-cross-host" => opts.allow_cross_host = true,
            "--deterministic-only" => opts.deterministic_only = true,
            other if other.starts_with("--") => {
                return Err(format!("unknown argument `{other}`"));
            }
            path => positional.push(PathBuf::from(path)),
        }
    }
    match <[PathBuf; 2]>::try_from(positional) {
        Ok([old, new]) => Ok((old, new, opts)),
        Err(got) => Err(format!(
            "expected exactly 2 manifest paths (OLD.json NEW.json), got {}",
            got.len()
        )),
    }
}

fn run_bench_diff(old: &Path, new: &Path, opts: &bench_diff::DiffOpts) -> ExitCode {
    let read = |path: &Path| {
        std::fs::read_to_string(path).map_err(|e| format!("cannot read {}: {e}", path.display()))
    };
    let (old_text, new_text) = match (read(old), read(new)) {
        (Ok(o), Ok(n)) => (o, n),
        (Err(msg), _) | (_, Err(msg)) => {
            eprintln!("xtask bench-diff: {msg}");
            return ExitCode::from(2);
        }
    };
    match bench_diff::diff(&old_text, &new_text, opts) {
        Ok(report) => {
            for line in &report.lines {
                println!("{line}");
            }
            if report.regressions > 0 {
                eprintln!(
                    "xtask bench-diff: {} regression{} ({} vs {})",
                    report.regressions,
                    if report.regressions == 1 { "" } else { "s" },
                    old.display(),
                    new.display(),
                );
                ExitCode::FAILURE
            } else {
                println!(
                    "xtask bench-diff: ok ({} vs {})",
                    old.display(),
                    new.display()
                );
                ExitCode::SUCCESS
            }
        }
        Err(msg) => {
            eprintln!("xtask bench-diff: {msg}");
            ExitCode::from(2)
        }
    }
}

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
    /// Regenerate the baseline from current findings instead of checking.
    update_baseline: bool,
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
            "--update-baseline" => opts.update_baseline = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if opts.update_baseline && !opts.rules.is_empty() {
        return Err(
            "--update-baseline cannot be combined with --rule (a partial run \
                    would drop the other rules' baseline entries)"
                .to_string(),
        );
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
        mut report,
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

    let baseline_path = root.join(BASELINE_FILE);
    if opts.update_baseline {
        // A missing or unreadable previous ledger (including schema-v1
        // files mid-migration) diffs against empty: everything current
        // reads as added, which is exactly what the rewrite does.
        let old = std::fs::read_to_string(&baseline_path)
            .ok()
            .and_then(|text| Baseline::parse(&text).ok())
            .unwrap_or_default();
        let baseline = Baseline::from_report(&report);
        let text = baseline.to_json().render();
        if let Err(err) = std::fs::write(&baseline_path, text + "\n") {
            eprintln!(
                "xtask lint: cannot write {}: {err}",
                baseline_path.display()
            );
            return ExitCode::from(2);
        }
        println!(
            "xtask lint: wrote {} ({} grandfathered entr{}; {})",
            baseline_path.display(),
            baseline.len(),
            if baseline.len() == 1 { "y" } else { "ies" },
            Baseline::diff(&old, &baseline).summary(),
        );
        return ExitCode::SUCCESS;
    }

    match std::fs::read_to_string(&baseline_path) {
        Ok(text) => match Baseline::parse(&text) {
            Ok(baseline) => baseline.apply(&mut report),
            Err(msg) => {
                eprintln!("xtask lint: malformed {BASELINE_FILE}: {msg}");
                return ExitCode::from(2);
            }
        },
        Err(err) if err.kind() == std::io::ErrorKind::NotFound => {}
        Err(err) => {
            eprintln!("xtask lint: cannot read {BASELINE_FILE}: {err}");
            return ExitCode::from(2);
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

/// Used by `lint` to locate the baseline next to the root manifest; kept
/// as a free function so the path logic stays testable.
#[allow(dead_code)]
fn baseline_path(root: &Path) -> PathBuf {
    root.join(BASELINE_FILE)
}

#[cfg(test)]
mod tests {
    use super::*;

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
        assert!(!opts.update_baseline);
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

    #[test]
    fn update_baseline_excludes_rule_filter() {
        assert!(parse_lint_args(&s(&["--update-baseline"])).is_ok());
        assert!(parse_lint_args(&s(&["--update-baseline", "--rule", "float-eq"])).is_err());
    }

    #[test]
    fn bench_diff_args_parse() {
        let (old, new, opts) = parse_bench_diff_args(&s(&[
            "--tolerance",
            "55.5",
            "old.json",
            "--allow-cross-host",
            "new.json",
        ]))
        .expect("parses");
        assert_eq!(old, Path::new("old.json"));
        assert_eq!(new, Path::new("new.json"));
        assert!((opts.tolerance_pct - 55.5).abs() < 1e-9);
        assert!(opts.allow_cross_host);

        let (_, _, opts) = parse_bench_diff_args(&s(&["a.json", "b.json"])).expect("parses");
        assert!((opts.tolerance_pct - bench_diff::DEFAULT_TOLERANCE_PCT).abs() < 1e-9);
        assert!(!opts.allow_cross_host);
    }

    #[test]
    fn bench_diff_args_reject_bad_input() {
        assert!(parse_bench_diff_args(&s(&["only-one.json"])).is_err());
        assert!(parse_bench_diff_args(&s(&["a", "b", "c"])).is_err());
        assert!(parse_bench_diff_args(&s(&["--tolerance", "nan", "a", "b"])).is_err());
        assert!(parse_bench_diff_args(&s(&["--tolerance", "-5", "a", "b"])).is_err());
        assert!(parse_bench_diff_args(&s(&["--frobnicate", "a", "b"])).is_err());
        assert!(parse_bench_diff_args(&s(&["--tolerance"])).is_err());
    }
}
