//! Command-line interface logic (see `src/bin/catapult.rs`).
//!
//! The subcommands wrap the library the way a downstream deployment would:
//!
//! ```text
//! catapult generate --profile aids --count 500 --seed 7 --out db.txt
//! catapult select   --db db.txt --gamma 30 --min-size 3 --max-size 12 --out patterns.txt
//! catapult evaluate --db db.txt --patterns patterns.txt --queries 200
//! catapult stats    --db db.txt
//! ```
//!
//! Graphs are read and written in the gSpan-style transaction format of
//! [`catapult_graph::fmt`]. All logic lives here (unit-testable); the
//! binary only forwards `std::env::args` and prints.

use catapult_ckpt::{CheckpointConfig, CkptError};
use catapult_core::{
    run_catapult, run_catapult_resumable, CatapultConfig, PatternBudget, PipelineReport,
};
use catapult_datasets::{aids_profile, emol_profile, generate, pubchem_profile, random_queries};
use catapult_eval::WorkloadEvaluation;
use catapult_graph::fmt::{parse_graphs, write_graphs};
use catapult_graph::{Graph, LabelInterner, SearchBudget};
use catapult_obs::json::Value;
use catapult_obs::progress::ProgressMeter;
use catapult_obs::{chrome, manifest, ManifestError, Recorder, RunManifest};
use std::collections::HashMap;
use std::fmt;
use std::path::{Path, PathBuf};

/// CLI errors.
#[derive(Debug)]
pub enum CliError {
    /// Unknown subcommand or malformed flags.
    Usage(String),
    /// I/O failure.
    Io(std::io::Error),
    /// Input file did not parse.
    Parse(String),
}

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CliError::Usage(m) => write!(f, "usage error: {m}"),
            CliError::Io(e) => write!(f, "io error: {e}"),
            CliError::Parse(m) => write!(f, "parse error: {m}"),
        }
    }
}

impl std::error::Error for CliError {}

impl From<std::io::Error> for CliError {
    fn from(e: std::io::Error) -> Self {
        CliError::Io(e)
    }
}

impl From<ManifestError> for CliError {
    fn from(e: ManifestError) -> Self {
        match e {
            ManifestError::Io(io) => CliError::Io(io),
            // Schema mismatch is an operator decision point (`--force`),
            // not an I/O failure.
            other @ ManifestError::SchemaMismatch { .. } => CliError::Usage(other.to_string()),
        }
    }
}

impl From<CkptError> for CliError {
    fn from(e: CkptError) -> Self {
        match e {
            CkptError::Io { path, source } => CliError::Io(std::io::Error::new(
                source.kind(),
                format!("{path}: {source}"),
            )),
            // Stale/foreign/guarded checkpoints are operator decision
            // points (`--resume`, `--force`, another directory), not
            // I/O failures.
            other => CliError::Usage(other.to_string()),
        }
    }
}

/// Flags that take no value — their presence is the value.
const BOOL_FLAGS: &[&str] = &["trace", "force", "resume", "progress"];

/// Flags every subcommand accepts (see "common" in [`USAGE`]).
const COMMON_FLAGS: &[&str] = &[
    "threads",
    "metrics-out",
    "trace",
    "trace-out",
    "progress",
    "force",
];

/// A subcommand's entry point.
type Command = fn(&Flags, &mut ObsSession) -> Result<String, CliError>;

/// Every subcommand: its name, entry point, and the flags it accepts
/// besides [`COMMON_FLAGS`].
const COMMANDS: &[(&str, Command, &[&str])] = &[
    (
        "generate",
        cmd_generate,
        &["profile", "count", "seed", "out"],
    ),
    (
        "select",
        cmd_select,
        &[
            "db",
            "gamma",
            "min-size",
            "max-size",
            "walks",
            "seed",
            "search-budget",
            "out",
            "checkpoint-dir",
            "resume",
        ],
    ),
    (
        "evaluate",
        cmd_evaluate,
        &[
            "db",
            "patterns",
            "queries",
            "min-edges",
            "max-edges",
            "seed",
        ],
    ),
    ("stats", cmd_stats, &["db"]),
];

/// Parsed `--key value` flags.
#[derive(Debug)]
pub struct Flags {
    values: HashMap<String, String>,
    switches: Vec<String>,
}

impl Flags {
    /// Parse `cmd`'s `--key value` pairs (and the valueless switches in
    /// [`BOOL_FLAGS`]). A flag outside `accepted` and [`COMMON_FLAGS`],
    /// a flag given twice, and a dangling flag are usage errors naming
    /// the flag and `cmd`.
    pub fn parse(cmd: &str, accepted: &[&str], args: &[String]) -> Result<Flags, CliError> {
        let mut values = HashMap::new();
        let mut switches = Vec::new();
        let mut it = args.iter();
        while let Some(a) = it.next() {
            let key = a
                .strip_prefix("--")
                .ok_or_else(|| CliError::Usage(format!("expected --flag, got '{a}'")))?;
            if !accepted.contains(&key) && !COMMON_FLAGS.contains(&key) {
                return Err(CliError::Usage(format!(
                    "`{cmd}` does not accept --{key}\n{USAGE}"
                )));
            }
            if values.contains_key(key) || switches.iter().any(|s| s == key) {
                return Err(CliError::Usage(format!("--{key} given twice to `{cmd}`")));
            }
            if BOOL_FLAGS.contains(&key) {
                switches.push(key.to_string());
                continue;
            }
            let value = it
                .next()
                .ok_or_else(|| CliError::Usage(format!("--{key} needs a value")))?;
            values.insert(key.to_string(), value.clone());
        }
        Ok(Flags { values, switches })
    }

    /// True when a valueless switch (e.g. `--trace`) was given.
    pub fn switch(&self, key: &str) -> bool {
        self.switches.iter().any(|s| s == key)
    }

    /// Required string flag.
    pub fn require(&self, key: &str) -> Result<&str, CliError> {
        self.values
            .get(key)
            .map(String::as_str)
            .ok_or_else(|| CliError::Usage(format!("--{key} is required")))
    }

    /// Optional string flag.
    pub fn get(&self, key: &str) -> Option<&str> {
        self.values.get(key).map(String::as_str)
    }

    /// Optional numeric flag with default.
    pub fn num<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, CliError> {
        match self.values.get(key) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| CliError::Usage(format!("--{key} got invalid value '{v}'"))),
        }
    }
}

/// Per-invocation observability session: the [`Recorder`] every stage
/// reports into, and the run manifest it completes, to which individual
/// subcommands contribute sections (pipeline report, budget
/// configuration, …).
#[derive(Debug)]
pub struct ObsSession {
    /// Always enabled (spans are stage-level, counters flush once per
    /// kernel call, events are rare), so every output — the crash dump
    /// included — reads one log.
    pub recorder: Recorder,
    manifest: RunManifest,
}

impl ObsSession {
    /// A session for `cmd`: its manifest header records `argv` and the
    /// environment.
    fn new(cmd: &str, argv: &[String]) -> ObsSession {
        let mut header = RunManifest::new(cmd);
        let mut args = Value::array();
        for a in argv {
            args.push(a.as_str());
        }
        header.set("argv", args);
        header.set(
            "environment",
            manifest::environment(rayon::current_threads()),
        );
        ObsSession {
            recorder: Recorder::enabled(),
            manifest: header,
        }
    }

    /// Contribute a named manifest section (written only under
    /// `--metrics-out`).
    pub fn section(&mut self, key: &str, value: Value) {
        self.manifest.set(key, value);
    }
}

/// The [`PipelineReport`] as a manifest section: per-stage completeness
/// tallies plus the overall verdict.
fn report_value(report: &PipelineReport) -> Value {
    let mut v = Value::object();
    v.set("all_exact", report.all_exact());
    v.set("worst", report.worst().name());
    for (stage, t) in report.stages() {
        let mut tv = Value::object();
        tv.set("exact", t.exact);
        tv.set("budget_exhausted", t.budget_exhausted);
        v.set(stage, tv);
    }
    v
}

/// Top-level usage text.
pub const USAGE: &str = "\
usage: catapult <generate|select|evaluate|stats> [--flags]
  generate --profile aids|pubchem|emol --count N [--seed S] [--out FILE]
  select   --db FILE [--gamma N] [--min-size A] [--max-size B] [--walks W] [--seed S]
           [--search-budget NODES] [--threads N] [--out FILE]
           [--checkpoint-dir DIR] [--resume]
  evaluate --db FILE --patterns FILE [--queries N] [--min-edges A] [--max-edges B] [--seed S]
           [--threads N]
  stats    --db FILE
common:
  --threads N        worker threads for the parallel fan-outs: 0 = auto
                     (all cores), 1 = exact sequential legacy behavior
                     (default: CATAPULT_THREADS env var, else auto;
                     at most 1024)
  --metrics-out FILE write a schema-versioned JSON run manifest (spans,
                     kernel counters, events, environment) after the
                     command; a panicking run writes the same file as its
                     crash dump, with the stages still open
  --trace            print a per-stage wall-time / kernel-effort table
  --trace-out FILE   write the span tree as Chrome trace-event JSON
                     (chrome://tracing, Perfetto; Speedscope shows it as
                     a flame graph)
  --progress         print a live heartbeat (stage, items, probes/sec,
                     ETA) to stderr every second; never touches stdout
  --force            overwrite an output file whose schema_version differs
                     (metrics/trace), or wipe a checkpoint directory and
                     start over
select crash safety:
  --checkpoint-dir D write a checkpoint at every pipeline stage boundary
                     (and mid-fine-clustering) under D
  --resume           continue from the furthest compatible checkpoint in
                     --checkpoint-dir instead of refusing a populated one";

fn load_db(path: &str, interner: &mut LabelInterner) -> Result<Vec<Graph>, CliError> {
    let text = std::fs::read_to_string(path)?;
    parse_graphs(&text, interner).map_err(|e| CliError::Parse(format!("{path}: {e}")))
}

fn emit(out: Option<&str>, content: &str) -> Result<String, CliError> {
    match out {
        Some(path) => {
            std::fs::write(path, content)?;
            Ok(format!("wrote {path}"))
        }
        None => Ok(content.to_string()),
    }
}

/// `generate`: write a synthetic repository.
pub fn cmd_generate(flags: &Flags, obs: &mut ObsSession) -> Result<String, CliError> {
    let _span = obs.recorder.span("generate");
    let profile = match flags.require("profile")? {
        "aids" => aids_profile(),
        "pubchem" => pubchem_profile(),
        "emol" => emol_profile(),
        other => return Err(CliError::Usage(format!("unknown profile '{other}'"))),
    };
    let count: usize = flags.num("count", 100)?;
    let seed: u64 = flags.num("seed", 42)?;
    let db = generate(&profile, count, seed);
    obs.recorder
        .counter("generate.db.graphs")
        .add(db.graphs.len() as u64);
    let text = write_graphs(&db.graphs, &db.interner);
    emit(flags.get("out"), &text)
}

/// `select`: run the pipeline and write the canned patterns.
pub fn cmd_select(flags: &Flags, obs: &mut ObsSession) -> Result<String, CliError> {
    let mut interner = LabelInterner::new();
    let db = load_db(flags.require("db")?, &mut interner)?;
    let gamma: usize = flags.num("gamma", 30)?;
    let min_size: usize = flags.num("min-size", 3)?;
    let max_size: usize = flags.num("max-size", 12)?;
    let budget = PatternBudget::new(min_size, max_size, gamma)
        .map_err(|e| CliError::Usage(e.to_string()))?;
    // Execution budget: `--search-budget` caps the nodes each NP-hard
    // kernel may expand; unset means per-stage defaults.
    let search_nodes = match flags.num::<u64>("search-budget", u64::MAX)? {
        u64::MAX => None,
        cap => Some(cap),
    };
    let search = search_nodes.map_or_else(SearchBudget::unbounded, SearchBudget::nodes);
    let cfg = CatapultConfig {
        budget,
        walks: flags.num("walks", 100)?,
        seed: flags.num("seed", 0xCA7A)?,
        search,
        recorder: obs.recorder.clone(),
        ..Default::default()
    };
    if flags.switch("resume") && flags.get("checkpoint-dir").is_none() {
        return Err(CliError::Usage(
            "--resume needs --checkpoint-dir to resume from".into(),
        ));
    }
    // Budget configuration as given, so a manifest is self-describing.
    let mut budget_v = Value::object();
    budget_v.set("gamma", gamma as u64);
    budget_v.set("min_size", min_size as u64);
    budget_v.set("max_size", max_size as u64);
    budget_v.set("walks", cfg.walks as u64);
    budget_v.set("seed", cfg.seed);
    budget_v.set(
        "search_nodes",
        search_nodes.map_or(Value::Null, Value::from),
    );
    obs.section("budget", budget_v);
    let result = match flags.get("checkpoint-dir") {
        None => run_catapult(&db, &cfg),
        Some(dir) => {
            let mut ckpt = CheckpointConfig::new(Path::new(dir));
            ckpt.resume = flags.switch("resume");
            ckpt.force = flags.switch("force");
            run_catapult_resumable(&db, &cfg, &ckpt)?
        }
    };
    let patterns = result.patterns();
    let text = write_graphs(&patterns, &interner);
    let report = result.report();
    // Wall times stay out of the file (the `--trace-out` and
    // `--metrics-out` spans carry them), so identical runs write
    // identical bytes.
    let summary = format!(
        "% {} patterns selected from {} graphs\n% search: {}\n",
        patterns.len(),
        db.len(),
        report.summary().replace('\n', "\n% "),
    );
    obs.section("report", report_value(report));
    emit(flags.get("out"), &format!("{summary}{text}"))
}

/// `evaluate`: workload metrics of a pattern file against a repository.
pub fn cmd_evaluate(flags: &Flags, obs: &mut ObsSession) -> Result<String, CliError> {
    let n: usize = flags.num("queries", 200)?;
    let lo: usize = flags.num("min-edges", 4)?;
    let hi: usize = flags.num("max-edges", 25)?;
    if lo > hi {
        return Err(CliError::Usage(format!(
            "--min-edges ({lo}) exceeds --max-edges ({hi})"
        )));
    }
    let seed: u64 = flags.num("seed", 7)?;
    let mut interner = LabelInterner::new();
    let db = load_db(flags.require("db")?, &mut interner)?;
    // Same interner: label names shared between the two files.
    let patterns = load_db(flags.require("patterns")?, &mut interner)?;
    let queries = random_queries(&db, n, (lo, hi), seed);
    // An evaluation over no query reads as a flawless one, so refuse it.
    if queries.is_empty() {
        let largest = db.iter().map(Graph::edge_count).max().unwrap_or(0);
        return Err(CliError::Usage(format!(
            "no query drawn for --queries {n} with edges in [{lo}, {hi}]: \
             the largest database graph has {largest} edges"
        )));
    }
    if queries.len() < n {
        obs.recorder.warn(
            "evaluate.queries",
            format_args!(
                "drew {} of {n} queries with edges in [{lo}, {hi}]",
                queries.len()
            ),
        );
    }
    let ev = WorkloadEvaluation::evaluate_recorded(&patterns, &queries, &obs.recorder);
    let mut eval_v = Value::object();
    eval_v.set("queries", queries.len() as u64);
    eval_v.set("mean_reduction", ev.mean_reduction());
    eval_v.set("missed_percentage", ev.missed_percentage());
    obs.section("evaluation", eval_v);
    Ok(format!(
        "queries: {}\nmean step reduction: {:.1}%\nmax step reduction: {:.1}%\nmissed percentage: {:.1}%\nscov: {:.3}\nlcov: {:.3}\nmean cog: {:.2}\nmean div: {:.2}",
        queries.len(),
        ev.mean_reduction() * 100.0,
        ev.max_reduction() * 100.0,
        ev.missed_percentage(),
        catapult_eval::measures::subgraph_coverage(&patterns, &db),
        catapult_eval::measures::label_coverage(&patterns, &db),
        catapult_eval::measures::mean_cog(&patterns),
        catapult_eval::measures::mean_diversity(&patterns),
    ))
}

/// `stats`: repository summary.
pub fn cmd_stats(flags: &Flags, obs: &mut ObsSession) -> Result<String, CliError> {
    let _span = obs.recorder.span("stats");
    let mut interner = LabelInterner::new();
    let db = load_db(flags.require("db")?, &mut interner)?;
    if db.is_empty() {
        return Ok("empty repository".into());
    }
    let edges: Vec<usize> = db.iter().map(Graph::edge_count).collect();
    let vertices: Vec<usize> = db.iter().map(Graph::vertex_count).collect();
    let stats = catapult_mining::EdgeLabelStats::from_graphs(&db);
    let mut label_counts: HashMap<catapult_graph::Label, usize> = HashMap::new();
    for g in &db {
        for &l in g.labels() {
            *label_counts.entry(l).or_insert(0) += 1;
        }
    }
    let total_v: usize = vertices.iter().sum();
    let mut by_freq: Vec<_> = label_counts.into_iter().collect();
    by_freq.sort_by_key(|&(l, c)| (std::cmp::Reverse(c), l));
    let label_line = by_freq
        .iter()
        .take(8)
        .map(|(l, c)| {
            format!(
                "{} {:.1}%",
                interner.display(*l),
                *c as f64 / total_v as f64 * 100.0
            )
        })
        .collect::<Vec<_>>()
        .join(", ");
    Ok(format!(
        "graphs: {}\nedges: min {} / avg {:.1} / max {}\nvertices: min {} / avg {:.1} / max {}\ndistinct edge labels: {}\nvertex labels: {}",
        db.len(),
        edges.iter().min().copied().unwrap_or(0),
        edges.iter().sum::<usize>() as f64 / db.len() as f64,
        edges.iter().max().copied().unwrap_or(0),
        vertices.iter().min().copied().unwrap_or(0),
        total_v as f64 / db.len() as f64,
        vertices.iter().max().copied().unwrap_or(0),
        stats.labels().len(),
        label_line,
    ))
}

/// Apply the `--threads` flag (any subcommand accepts it).
///
/// `0` means auto-size to `available_parallelism()`; `1` pins the
/// parallel fan-outs to the exact sequential legacy behavior. When the
/// flag is absent the process-wide default stands (the
/// `CATAPULT_THREADS` env var, else auto) — we deliberately do not
/// overwrite it so env-configured runs keep working. A count above
/// [`rayon::MAX_THREADS`] is refused: every fan-out would spawn that many
/// OS threads at once.
fn apply_threads(flags: &Flags) -> Result<(), CliError> {
    if flags.get("threads").is_some() {
        let n: usize = flags.num("threads", 0)?;
        if n > rayon::MAX_THREADS {
            return Err(CliError::Usage(format!(
                "--threads got {n}, above the ceiling of {}",
                rayon::MAX_THREADS
            )));
        }
        rayon::set_threads(n);
    }
    Ok(())
}

/// Flags that name a file the run reads.
const INPUT_FILES: [&str; 2] = ["db", "patterns"];

/// Flags that name a file the run writes.
const OUTPUT_FILES: [&str; 3] = ["out", "metrics-out", "trace-out"];

/// Refuse, before any work, an output flag that names the same file as
/// another file flag: the run would overwrite its own input, or one of
/// its outputs with another. Paths are compared after resolving their
/// directory, so `m.json` and `./m.json` collide.
fn refuse_colliding_files(flags: &Flags) -> Result<(), CliError> {
    let named: Vec<(&str, PathBuf)> = INPUT_FILES
        .iter()
        .chain(&OUTPUT_FILES)
        .filter_map(|&flag| flags.get(flag).map(|v| (flag, file_identity(Path::new(v)))))
        .collect();
    for (j, (flag, path)) in named.iter().enumerate() {
        if !OUTPUT_FILES.contains(flag) {
            continue;
        }
        if let Some((other, _)) = named[..j].iter().find(|(_, p)| p == path) {
            return Err(CliError::Usage(format!(
                "--{other} and --{flag} name the same file {}",
                path.display()
            )));
        }
    }
    Ok(())
}

/// The file `p` names: its canonical path when it exists, else its
/// resolved directory joined with its file name, else `p` as given.
fn file_identity(p: &Path) -> PathBuf {
    if let Ok(full) = std::fs::canonicalize(p) {
        return full;
    }
    let dir = match p.parent() {
        Some(d) if !d.as_os_str().is_empty() => d,
        _ => Path::new("."),
    };
    match (std::fs::canonicalize(dir), p.file_name()) {
        (Ok(dir), Some(name)) => dir.join(name),
        _ => p.to_path_buf(),
    }
}

/// Dispatch a full argument vector (without the program name).
pub fn run(args: &[String]) -> Result<String, CliError> {
    let (cmd, rest) = args
        .split_first()
        .ok_or_else(|| CliError::Usage(format!("missing command\n{USAGE}")))?;
    let Some(&(_, command, accepted)) = COMMANDS.iter().find(|(name, ..)| name == cmd) else {
        return Err(CliError::Usage(format!("unknown command '{cmd}'\n{USAGE}")));
    };
    let flags = Flags::parse(cmd, accepted, rest)?;
    // A malformed CATAPULT_THREADS is a usage error up front, not a
    // silently ignored setting.
    rayon::check_thread_env().map_err(CliError::Usage)?;
    apply_threads(&flags)?;
    refuse_colliding_files(&flags)?;
    let metrics_out = flags.get("metrics-out").map(Path::new);
    let trace_out = flags.get("trace-out").map(Path::new);
    let force = flags.switch("force");
    // Refuse schema-incompatible overwrites up front, before any work.
    // Manifests and Chrome traces both carry a `schema_version`, so one
    // guard (and one `--force`) governs them.
    for (path, version) in [
        (metrics_out, manifest::SCHEMA_VERSION),
        (trace_out, chrome::TRACE_SCHEMA_VERSION),
    ] {
        if let Some(path) = path {
            manifest::guard_overwrite(path, version, force)?;
        }
    }
    let mut obs = ObsSession::new(cmd, rest);
    // The run manifest is the crash dump: a panic writes the header and
    // the recorder's snapshot, open stages included, to the same path.
    let armed =
        metrics_out.map(|path| manifest::arm_crash_dump(path, &obs.manifest, &obs.recorder));
    let meter = flags
        .switch("progress")
        .then(|| ProgressMeter::start(&obs.recorder, std::time::Duration::from_secs(1)));
    let result = command(&flags, &mut obs);
    // Stop the heartbeat before writing artifacts or composing output so
    // its stderr lines cannot interleave with the epilogue, and disarm:
    // the command returned, so no panic may clobber the final manifest.
    drop(meter);
    drop(armed);
    let mut out = result?;
    if let Some(snapshot) = obs.recorder.snapshot() {
        if flags.switch("trace") {
            out.push('\n');
            out.push_str(&catapult_obs::summary_table(&snapshot));
        }
        if let Some(path) = trace_out {
            std::fs::write(path, chrome::chrome_trace(&snapshot).render())?;
            out.push_str(&format!("\nwrote trace to {}", path.display()));
        }
        if let Some(path) = metrics_out {
            obs.manifest.attach_snapshot(&snapshot);
            obs.manifest.write(path, force)?;
            out.push_str(&format!("\nwrote metrics to {}", path.display()));
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &[&str]) -> Vec<String> {
        s.iter().map(|x| x.to_string()).collect()
    }

    fn tmp(name: &str) -> String {
        let dir = std::env::temp_dir().join("catapult-cli-tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name).to_string_lossy().into_owned()
    }

    #[test]
    fn flags_parse_and_validate() {
        let accepted = ["count", "seed", "dangling"];
        let parse = |a: &[&str]| Flags::parse("generate", &accepted, &args(a));
        let f = parse(&["--count", "5", "--seed", "9", "--trace"]).unwrap();
        assert_eq!(f.num::<usize>("count", 0).unwrap(), 5);
        assert_eq!(f.num::<u64>("missing", 3).unwrap(), 3);
        assert!(f.switch("trace"));
        assert!(f.require("nope").is_err());
        assert!(parse(&["--dangling"]).is_err());
        assert!(parse(&["positional"]).is_err());
        assert!(parse(&["--bogus", "3"]).is_err());
        assert!(parse(&["--count", "5", "--count", "6"]).is_err());
        assert!(parse(&["--trace", "--trace"]).is_err());
    }

    #[test]
    fn unknown_and_repeated_flags_are_usage_errors() {
        let usage = |a: &[&str]| match run(&args(a)) {
            Err(CliError::Usage(m)) => m,
            other => panic!("{a:?}: expected a usage error, got {other:?}"),
        };
        // A misspelt flag is refused, not run with the default (γ = 30).
        let m = usage(&["select", "--db", "db.txt", "--gama", "5"]);
        assert!(m.contains("--gama") && m.contains("`select`"), "{m}");
        // The retired telemetry flags are refused, not ignored.
        for retired in ["--flight-out", "--folded-out"] {
            let m = usage(&["select", "--db", "db.txt", retired, "x"]);
            assert!(m.contains(retired) && m.contains("`select`"), "{m}");
        }
        // So is the retired worker-isolation switch: a panic aborts the run.
        let m = usage(&["select", "--db", "db.txt", "--keep-going"]);
        assert!(m.contains("--keep-going") && m.contains("`select`"), "{m}");
        let m = usage(&["select", "--db", "db.txt", "--gamma", "5", "--gamma", "6"]);
        assert!(m.contains("--gamma") && m.contains("`select`"), "{m}");
        // Another subcommand's flag is unknown here.
        let m = usage(&["stats", "--db", "db.txt", "--gamma", "5"]);
        assert!(m.contains("--gamma") && m.contains("`stats`"), "{m}");
    }

    #[test]
    fn usage_text_renders_aligned_and_prefixed_once() {
        let rendered = |a: &[&str]| run(&args(a)).unwrap_err().to_string();
        assert_eq!(
            rendered(&[]),
            format!("usage error: missing command\n{USAGE}")
        );
        assert_eq!(
            rendered(&["select", "--db", "db.txt", "--gama", "5"]),
            format!("usage error: `select` does not accept --gama\n{USAGE}")
        );
        let lines: Vec<&str> = USAGE.lines().collect();
        assert_eq!(
            lines[0],
            "usage: catapult <generate|select|evaluate|stats> [--flags]"
        );
        assert_eq!(
            lines[3],
            "           [--search-budget NODES] [--threads N] [--out FILE]"
        );
        assert_eq!(
            lines[10],
            "                     (all cores), 1 = exact sequential legacy behavior"
        );
        // Below the header, only section titles sit flush left; in the
        // option sections every help text starts at column 21.
        let mut in_options = false;
        for l in &lines[1..] {
            if !l.starts_with(' ') {
                assert!(l.ends_with(':'), "flush-left line: {l:?}");
                in_options = true;
                continue;
            }
            assert!(l.starts_with("  "), "{l:?}");
            if in_options {
                let (flag, help) = l.split_at(21);
                assert!(flag.ends_with(' ') && !help.starts_with(' '), "{l:?}");
            }
        }
    }

    #[test]
    fn generate_select_evaluate_round_trip() {
        let db_path = tmp("db.txt");
        let pat_path = tmp("patterns.txt");
        let out = run(&args(&[
            "generate",
            "--profile",
            "emol",
            "--count",
            "25",
            "--seed",
            "3",
            "--out",
            &db_path,
        ]))
        .unwrap();
        assert!(out.contains("wrote"));
        let out = run(&args(&[
            "select",
            "--db",
            &db_path,
            "--gamma",
            "4",
            "--min-size",
            "3",
            "--max-size",
            "5",
            "--walks",
            "15",
            "--out",
            &pat_path,
        ]))
        .unwrap();
        assert!(out.contains("wrote"));
        let report = run(&args(&[
            "evaluate",
            "--db",
            &db_path,
            "--patterns",
            &pat_path,
            "--queries",
            "15",
        ]))
        .unwrap();
        assert!(report.contains("missed percentage"));
        assert!(report.contains("scov"));
    }

    #[test]
    fn stats_reports_shape() {
        let db_path = tmp("db_stats.txt");
        run(&args(&[
            "generate",
            "--profile",
            "aids",
            "--count",
            "10",
            "--out",
            &db_path,
        ]))
        .unwrap();
        let report = run(&args(&["stats", "--db", &db_path])).unwrap();
        assert!(report.contains("graphs: 10"));
        assert!(report.contains("C ")); // carbon leads the label histogram
    }

    #[test]
    fn colliding_file_flags_are_refused_before_any_work() {
        let db = tmp("collide_db.txt");
        run(&args(&[
            "generate",
            "--profile",
            "aids",
            "--count",
            "20",
            "--out",
            &db,
        ]))
        .unwrap();
        let db_bytes = std::fs::read(&db).unwrap();
        let (p, m) = (tmp("collide_p.txt"), tmp("collide_m.json"));
        // The same file spelled through `.`: it must still collide.
        let m_dotted = tmp("./collide_m.json");
        let cases: [(&[&str], &str, &str); 3] = [
            (&["--out", &db], "--db and --out", &db),
            (
                &["--out", &p, "--metrics-out", &p],
                "--out and --metrics-out",
                &p,
            ),
            (
                &["--metrics-out", &m, "--trace-out", &m_dotted],
                "--metrics-out and --trace-out",
                &m,
            ),
        ];
        for (extra, names, target) in cases {
            for f in [&p, &m] {
                std::fs::remove_file(f).ok();
            }
            let mut a = vec!["select", "--db", &db, "--gamma", "3"];
            a.extend_from_slice(extra);
            let r = run(&args(&a));
            assert!(
                matches!(&r, Err(CliError::Usage(msg)) if msg.contains(names)),
                "{extra:?}: {r:?}"
            );
            if target == db {
                assert_eq!(std::fs::read(&db).unwrap(), db_bytes, "input DB rewritten");
            } else {
                assert!(!Path::new(target).exists(), "{extra:?} wrote {target}");
            }
        }
    }

    #[test]
    fn bad_inputs_give_usage_errors() {
        assert!(matches!(run(&[]), Err(CliError::Usage(_))));
        assert!(matches!(
            run(&args(&["frobnicate"])),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            run(&args(&["generate", "--profile", "nope"])),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            run(&args(&["stats", "--db", "/nonexistent/file"])),
            Err(CliError::Io(_))
        ));
        // An inverted query size range is refused before any file is read.
        let r = run(&args(&[
            "evaluate",
            "--db",
            "/nonexistent/file",
            "--patterns",
            "/nonexistent/file",
            "--min-edges",
            "9",
            "--max-edges",
            "2",
        ]));
        assert!(
            matches!(&r, Err(CliError::Usage(m)) if m.contains("--min-edges")),
            "{r:?}"
        );
        // A run that draws no query is refused, naming the edge range and
        // the largest graph, instead of reporting a perfect evaluation.
        let db_path = tmp("db_no_queries.txt");
        run(&args(&[
            "generate",
            "--profile",
            "aids",
            "--count",
            "40",
            "--out",
            &db_path,
        ]))
        .unwrap();
        for (queries, lo, hi) in [("5", "200", "300"), ("0", "4", "25")] {
            let r = run(&args(&[
                "evaluate",
                "--db",
                &db_path,
                "--patterns",
                &db_path,
                "--queries",
                queries,
                "--min-edges",
                lo,
                "--max-edges",
                hi,
            ]));
            assert!(
                matches!(&r, Err(CliError::Usage(m))
                    if m.contains(&format!("[{lo}, {hi}]")) && m.contains("largest")),
                "--queries {queries}: {r:?}"
            );
        }
    }

    #[test]
    fn select_reports_search_completeness() {
        let db_path = tmp("db_budget.txt");
        run(&args(&[
            "generate",
            "--profile",
            "emol",
            "--count",
            "20",
            "--seed",
            "8",
            "--out",
            &db_path,
        ]))
        .unwrap();
        // Unconstrained: the report must say the run was exact.
        let out = run(&args(&[
            "select",
            "--db",
            &db_path,
            "--gamma",
            "3",
            "--min-size",
            "3",
            "--max-size",
            "5",
            "--walks",
            "10",
        ]))
        .unwrap();
        assert!(out.contains("% search: all"), "missing summary: {out}");
        assert!(out.contains("exact"), "missing exactness: {out}");
        // A zero node cap degrades but still produces output.
        let out = run(&args(&[
            "select",
            "--db",
            &db_path,
            "--gamma",
            "3",
            "--min-size",
            "3",
            "--max-size",
            "5",
            "--walks",
            "10",
            "--search-budget",
            "0",
        ]))
        .unwrap();
        assert!(out.contains("% search:"), "missing summary: {out}");
        assert!(out.contains("degraded"), "a zero cap must degrade: {out}");
    }

    #[test]
    fn threads_flag_is_validated() {
        // Invalid values are usage errors before any work happens.
        for bad in ["many", "1025", "100000"] {
            let r = run(&args(&["stats", "--db", "x", "--threads", bad]));
            assert!(matches!(r, Err(CliError::Usage(_))), "--threads {bad}");
        }
        // A valid value is accepted by every subcommand (the run itself
        // then proceeds; here generate exercises the full path).
        let db_path = tmp("db_threads.txt");
        let out = run(&args(&[
            "generate",
            "--profile",
            "emol",
            "--count",
            "5",
            "--threads",
            "1",
            "--out",
            &db_path,
        ]))
        .unwrap();
        assert!(out.contains("wrote"));
        assert_eq!(rayon::current_threads(), 1);
        // Restore auto sizing for the rest of the binary's tests.
        rayon::set_threads(0);
    }

    #[test]
    fn metrics_out_writes_versioned_manifest() {
        let db_path = tmp("db_metrics.txt");
        let m_path = tmp("metrics.json");
        let _ = std::fs::remove_file(&m_path);
        run(&args(&[
            "generate",
            "--profile",
            "emol",
            "--count",
            "15",
            "--seed",
            "5",
            "--out",
            &db_path,
        ]))
        .unwrap();
        let out = run(&args(&[
            "select",
            "--db",
            &db_path,
            "--gamma",
            "3",
            "--min-size",
            "3",
            "--max-size",
            "5",
            "--walks",
            "10",
            "--metrics-out",
            &m_path,
        ]))
        .unwrap();
        assert!(out.contains("wrote metrics to"), "{out}");
        let manifest = std::fs::read_to_string(&m_path).unwrap();
        assert!(manifest.starts_with("{\n  \"schema_version\": 2,"));
        assert!(manifest.contains("\"command\": \"select\""));
        assert!(manifest.contains("\"pipeline\""), "missing root span");
        assert!(
            manifest.contains("mining.iso.calls"),
            "missing kernel counters"
        );
        assert!(manifest.contains("\"report\""), "missing pipeline report");
        assert!(manifest.contains("\"budget\""), "missing budget section");
        // The mining stage ran, so its VF2 counters must be nonzero.
        let calls = catapult_obs::json::extract_uint_field(&manifest, "mining.iso.calls").unwrap();
        assert!(calls > 0, "mining ran but recorded no kernel calls");
        // The event log is part of every manifest (empty here: no
        // checkpoint, warning or heartbeat happened).
        let parsed = catapult_obs::json::parse(&manifest).unwrap();
        assert!(matches!(parsed.get("events"), Some(Value::Array(_))));
        assert_eq!(parsed.get("dropped_events"), Some(&Value::UInt(0)));
        // The budget section records the parsed flag values.
        let budget = parsed.get("budget").expect("budget section");
        assert_eq!(budget.get("search_nodes"), Some(&Value::Null));
    }

    #[test]
    fn trace_prints_span_and_kernel_tables() {
        let db_path = tmp("db_trace.txt");
        run(&args(&[
            "generate",
            "--profile",
            "emol",
            "--count",
            "12",
            "--seed",
            "2",
            "--out",
            &db_path,
        ]))
        .unwrap();
        let out = run(&args(&[
            "select",
            "--db",
            &db_path,
            "--gamma",
            "3",
            "--min-size",
            "3",
            "--max-size",
            "5",
            "--walks",
            "10",
            "--trace",
        ]))
        .unwrap();
        assert!(out.contains("pipeline"), "{out}");
        assert!(out.contains("probes/sec"), "{out}");
    }

    #[test]
    fn trace_out_writes_chrome_trace() {
        let db_path = tmp("db_trace_out.txt");
        let t_path = tmp("trace_out.json");
        let _ = std::fs::remove_file(&t_path);
        run(&args(&[
            "generate",
            "--profile",
            "emol",
            "--count",
            "12",
            "--seed",
            "2",
            "--out",
            &db_path,
        ]))
        .unwrap();
        let select = |extra: &[&str]| {
            let mut a = args(&[
                "select",
                "--db",
                &db_path,
                "--gamma",
                "3",
                "--min-size",
                "3",
                "--max-size",
                "5",
                "--walks",
                "10",
                "--trace-out",
                &t_path,
            ]);
            a.extend(extra.iter().map(|s| s.to_string()));
            run(&a)
        };
        let out = select(&[]).unwrap();
        assert!(out.contains("wrote trace to"), "{out}");
        // The trace must be structurally valid Chrome trace-event JSON.
        let trace = std::fs::read_to_string(&t_path).unwrap();
        assert_eq!(
            catapult_obs::schema_version_of(&trace),
            Some(chrome::TRACE_SCHEMA_VERSION)
        );
        let parsed = catapult_obs::json::parse(&trace).unwrap();
        match parsed.get("traceEvents") {
            Some(Value::Array(events)) => assert!(!events.is_empty()),
            other => panic!("traceEvents missing: {other:?}"),
        }
        assert!(trace.contains("\"pipeline\""), "missing root span");
        // A rerun may overwrite its own trace.
        select(&[]).unwrap();
        // A foreign-schema trace file is refused, and the refusal names
        // the flag that overrides it.
        std::fs::write(&t_path, "{\n  \"schema_version\": 999\n}\n").unwrap();
        let r = select(&[]);
        assert!(
            matches!(&r, Err(CliError::Usage(m)) if m.contains("--force")),
            "{r:?}"
        );
        select(&["--force"]).unwrap();
        let _ = std::fs::remove_file(&t_path);
    }

    #[test]
    fn progress_switch_is_accepted_and_output_neutral() {
        let db_path = tmp("db_progress.txt");
        let quiet = run(&args(&[
            "generate",
            "--profile",
            "emol",
            "--count",
            "10",
            "--seed",
            "9",
        ]))
        .unwrap();
        let noisy = run(&args(&[
            "generate",
            "--profile",
            "emol",
            "--count",
            "10",
            "--seed",
            "9",
            "--progress",
        ]))
        .unwrap();
        // The heartbeat goes to stderr only: stdout is byte-identical.
        assert_eq!(quiet, noisy);
        let _ = std::fs::remove_file(&db_path);
    }

    #[test]
    fn metrics_out_refuses_foreign_schema_without_force() {
        let db_path = tmp("db_guard.txt");
        let m_path = tmp("metrics_guard.json");
        run(&args(&[
            "generate",
            "--profile",
            "emol",
            "--count",
            "8",
            "--out",
            &db_path,
        ]))
        .unwrap();
        std::fs::write(&m_path, "{\n  \"schema_version\": 999\n}\n").unwrap();
        let r = run(&args(&[
            "stats",
            "--db",
            &db_path,
            "--metrics-out",
            &m_path,
        ]));
        assert!(matches!(r, Err(CliError::Usage(_))), "guard must refuse");
        // --force overrides; the file is rewritten at the current schema.
        let out = run(&args(&[
            "stats",
            "--db",
            &db_path,
            "--metrics-out",
            &m_path,
            "--force",
        ]))
        .unwrap();
        assert!(out.contains("wrote metrics to"), "{out}");
        let manifest = std::fs::read_to_string(&m_path).unwrap();
        assert_eq!(
            catapult_obs::schema_version_of(&manifest),
            Some(catapult_obs::SCHEMA_VERSION)
        );
    }

    #[test]
    fn select_checkpoints_and_resumes() {
        let db_path = tmp("db_ckpt.txt");
        let ckpt_dir = tmp("ckpt_dir");
        let _ = std::fs::remove_dir_all(&ckpt_dir);
        run(&args(&[
            "generate",
            "--profile",
            "emol",
            "--count",
            "15",
            "--seed",
            "4",
            "--out",
            &db_path,
        ]))
        .unwrap();
        let select = |extra: &[&str]| {
            let mut a = args(&[
                "select",
                "--db",
                &db_path,
                "--gamma",
                "3",
                "--min-size",
                "3",
                "--max-size",
                "5",
                "--walks",
                "10",
                "--checkpoint-dir",
                &ckpt_dir,
            ]);
            a.extend(extra.iter().map(|s| s.to_string()));
            run(&a)
        };
        let first = select(&[]).unwrap();
        assert!(std::path::Path::new(&ckpt_dir)
            .join("clustering.ckpt")
            .exists());
        // A populated directory is refused without --resume/--force…
        let r = select(&[]);
        assert!(
            matches!(&r, Err(CliError::Usage(m)) if m.contains("--force")),
            "{r:?}"
        );
        // …and --resume reproduces the run from its checkpoints.
        let resumed = select(&["--resume"]).unwrap();
        assert_eq!(resumed, first);
        // --resume without a directory is a usage error.
        let r = run(&args(&["select", "--db", &db_path, "--resume"]));
        assert!(matches!(r, Err(CliError::Usage(_))));
        let _ = std::fs::remove_dir_all(&ckpt_dir);
    }

    #[test]
    fn resume_over_a_corrupt_checkpoint_names_its_stage_in_the_flight_log() {
        let db_path = tmp("db_corrupt_ckpt.txt");
        let ckpt_dir = tmp("ckpt_corrupt_dir");
        let fl_path = tmp("metrics_corrupt_ckpt.json");
        let _ = std::fs::remove_dir_all(&ckpt_dir);
        let _ = std::fs::remove_file(&fl_path);
        run(&args(&[
            "generate",
            "--profile",
            "emol",
            "--count",
            "10",
            "--seed",
            "4",
            "--out",
            &db_path,
        ]))
        .unwrap();
        let select = |extra: &[&str]| {
            let mut a = args(&[
                "select",
                "--db",
                &db_path,
                "--gamma",
                "3",
                "--min-size",
                "3",
                "--max-size",
                "5",
                "--walks",
                "10",
                "--checkpoint-dir",
                &ckpt_dir,
            ]);
            a.extend(extra.iter().map(|s| s.to_string()));
            run(&a).unwrap()
        };
        select(&[]);
        let csg = Path::new(&ckpt_dir).join("csg.ckpt");
        let mut raw = std::fs::read(&csg).unwrap();
        let mid = raw.len() / 2;
        raw[mid] ^= 0x40;
        std::fs::write(&csg, &raw).unwrap();
        select(&["--resume", "--metrics-out", &fl_path]);
        let dump = catapult_obs::json::parse(&std::fs::read_to_string(&fl_path).unwrap()).unwrap();
        let Some(Value::Array(events)) = dump.get("events") else {
            panic!("no events in the manifest");
        };
        let warned = |e: &&Value| {
            matches!(e.get("name"), Some(Value::Str(n)) if n == "flight.log.warning")
                && matches!(e.get("detail"), Some(Value::Str(d)) if d == "csg")
        };
        assert!(
            events.iter().any(|e| warned(&e)),
            "no warning naming the `csg` stage: {}",
            dump.render()
        );
        let _ = std::fs::remove_dir_all(&ckpt_dir);
        let _ = std::fs::remove_file(&fl_path);
    }

    #[test]
    fn select_rejects_bad_budget() {
        let db_path = tmp("db2.txt");
        run(&args(&[
            "generate",
            "--profile",
            "emol",
            "--count",
            "5",
            "--out",
            &db_path,
        ]))
        .unwrap();
        let r = run(&args(&["select", "--db", &db_path, "--min-size", "1"]));
        assert!(matches!(r, Err(CliError::Usage(_))));
    }
}
