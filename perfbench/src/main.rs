//! `perfbench`: one run of one end-to-end benchmark workload.
//!
//! ```text
//! perfbench --workload paper|cluster|grow --seed N --seconds S --trace 0|1 [--data-seed N]
//! ```
//!
//! Builds the workload's inputs (timing the set-up several times), repeats
//! the timed operation for about `S` seconds, checks every selected panel,
//! evaluates the panel on the query workload, and prints as its last
//! stdout line one JSON object: `correct`, `attempted`, `failed` and
//! `metrics`. `--trace 0` reports the end-to-end metrics; `--trace 1`
//! alternates untraced and traced operations and reports the per-layer
//! metrics instead. See README.md for the workloads and metrics.

#![forbid(unsafe_code)]

mod check;
mod layers;
mod workload;

use catapult_eval::measures::subgraph_coverage;
use catapult_eval::WorkloadEvaluation;
use catapult_obs::{Recorder, Stopwatch};
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::process::ExitCode;
use workload::{Inputs, OpOutcome, Workload};

/// Worker threads for every parallel stage.
const THREADS: usize = 2;
/// Set-up is timed in blocks: a block repeats it until the block has
/// lasted at least [`SETUP_BLOCK_S`], and one sample is the block's time
/// per repetition, so a millisecond-scale set-up is timed over many
/// repetitions. Blocks repeat until there are at least
/// [`SETUP_MIN_SAMPLES`] samples and [`SETUP_MIN_S`] has passed;
/// `setup_s` is the median sample.
const SETUP_BLOCK_S: f64 = 0.25;
const SETUP_MIN_SAMPLES: usize = 5;
const SETUP_MIN_S: f64 = 2.0;
/// Fewest timed operations per untraced run.
const MIN_OPS: usize = 3;

const USAGE: &str =
    "usage: perfbench --workload paper|cluster|grow --seed N --seconds S --trace 0|1 [--data-seed N]";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    data_seed: u64,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut flags = BTreeMap::new();
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let name = flag
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument {flag:?}"))?;
        let value = it.next().ok_or_else(|| format!("--{name} needs a value"))?;
        if flags.insert(name.to_string(), value.clone()).is_some() {
            return Err(format!("--{name} given twice"));
        }
    }
    let mut take = |name: &str| flags.remove(name);
    let number = |name: &str, v: Option<String>| -> Result<Option<u64>, String> {
        v.map(|s| s.parse::<u64>().map_err(|e| format!("--{name} {s:?}: {e}")))
            .transpose()
    };
    let workload_name = take("workload").ok_or("--workload is required")?;
    let workload = Workload::parse(&workload_name)
        .ok_or_else(|| format!("unknown workload {workload_name:?}"))?;
    let seed = number("seed", take("seed"))?.ok_or("--seed is required")?;
    let seconds = number("seconds", take("seconds"))?.ok_or("--seconds is required")?;
    if seconds == 0 {
        return Err("--seconds must be at least 1".to_string());
    }
    let trace = match take("trace").as_deref() {
        None | Some("0") => false,
        Some("1") => true,
        Some(other) => return Err(format!("--trace {other:?}: expected 0 or 1")),
    };
    let data_seed = number("data-seed", take("data-seed"))?.unwrap_or(workload::DEFAULT_DATA_SEED);
    if let Some(unknown) = flags.keys().next() {
        return Err(format!("unknown flag --{unknown}"));
    }
    Ok(Args {
        workload,
        seed,
        seconds: seconds as f64,
        trace,
        data_seed,
    })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    rayon::set_threads(THREADS);
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

fn secs(clock: &Stopwatch) -> f64 {
    clock.elapsed().as_secs_f64()
}

/// Run one operation, turning a panic into an error.
fn guarded(op: impl FnOnce() -> OpOutcome) -> Result<OpOutcome, String> {
    catch_unwind(AssertUnwindSafe(op)).map_err(|payload| {
        payload
            .downcast_ref::<&str>()
            .map(|s| (*s).to_string())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "panic".to_string())
    })
}

/// Selections attempted and failed, with the reason for each failure,
/// and how many checked patterns embed in no database graph.
#[derive(Default)]
struct Verdict {
    attempted: u64,
    failed: u64,
    reasons: Vec<String>,
    patterns: u64,
    phantoms: u64,
}

impl Verdict {
    /// Share of checked patterns that embed in at least one database graph.
    fn embedded_pct(&self) -> f64 {
        if self.patterns == 0 {
            return 0.0;
        }
        100.0 * (self.patterns - self.phantoms) as f64 / self.patterns as f64
    }

    /// Check every panel of `op`, and that its digest equals `reference`
    /// (the same inputs must give the same output, traced or not).
    fn judge(
        &mut self,
        w: Workload,
        inputs: &Inputs,
        op: &Result<OpOutcome, String>,
        reference: u64,
    ) {
        let per_op = w.selections_per_op() as u64;
        let op = match op {
            Ok(op) => op,
            Err(panic) => {
                self.attempted += per_op;
                self.failed += per_op;
                self.reasons.push(format!("operation panicked: {panic}"));
                return;
            }
        };
        if op.digest != reference {
            self.attempted += per_op;
            self.failed += per_op;
            self.reasons.push(format!(
                "digest {:016x} differs from {reference:016x}",
                op.digest
            ));
            return;
        }
        let budget = w.budget();
        for (i, panel) in op.panels.iter().enumerate() {
            self.attempted += 1;
            match check::check_panel(panel, &inputs.db[..panel.db_len], &budget) {
                Ok(phantoms) => {
                    self.patterns += panel.patterns.len() as u64;
                    self.phantoms += phantoms as u64;
                }
                Err(e) => {
                    self.failed += 1;
                    self.reasons.push(format!("selection {i}: {e}"));
                }
            }
        }
    }
}

/// Peak resident set size of this process, in MB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kb / 1024.0)
}

/// The last stdout line: the machine-readable result.
fn result_line(verdict: &Verdict, metrics: &[(&str, &str, f64)]) -> Result<String, String> {
    let mut body = Vec::with_capacity(metrics.len());
    for (name, unit, value) in metrics {
        if !value.is_finite() {
            return Err(format!("metric {name} is not finite ({value})"));
        }
        body.push(format!(
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        ));
    }
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        verdict.failed == 0,
        verdict.attempted,
        verdict.failed,
        body.join(", ")
    ))
}

fn json_list(values: &[f64]) -> String {
    let items: Vec<String> = values.iter().map(|v| v.to_string()).collect();
    format!("[{}]", items.join(", "))
}

fn run(args: &Args) -> Result<(), String> {
    let w = args.workload;
    // The traced run reports no set-up time, so it sets up once.
    let (block_s, min_samples, min_s) = if args.trace {
        (0.0, 1, 0.0)
    } else {
        (SETUP_BLOCK_S, SETUP_MIN_SAMPLES, SETUP_MIN_S)
    };
    let mut setup_s = Vec::new();
    let setup_clock = Stopwatch::start();
    let inputs = loop {
        let block = Stopwatch::start();
        let mut reps = 0u32;
        let built = loop {
            let built = workload::setup(w, args.data_seed, args.seed)?;
            reps += 1;
            if secs(&block) >= block_s {
                break built;
            }
        };
        setup_s.push(secs(&block) / f64::from(reps));
        if setup_s.len() >= min_samples && secs(&setup_clock) >= min_s {
            break built;
        }
    };
    eprintln!(
        "perfbench: {} data seed {} query seed {}: {} graphs, {} queries, set-up {:.3} s",
        w.name(),
        args.data_seed,
        args.seed,
        inputs.db.len(),
        inputs.queries.len(),
        median(&setup_s)
    );

    // Repeat the operation (or, traced, an untraced + traced pair) while
    // one more would still end within the run's time, and at least
    // MIN_OPS times so that the median rejects one disturbed operation.
    let clock = Stopwatch::start();
    let mut untraced = Vec::new();
    let mut traced = Vec::new();
    let mut walls = Vec::new();
    loop {
        let started = Stopwatch::start();
        untraced.push(guarded(|| workload::run_untraced(w, &inputs)));
        if args.trace {
            traced.push(guarded(|| workload::run_traced(w, &inputs)));
        }
        walls.push(secs(&started));
        let min_ops = if args.trace { 1 } else { MIN_OPS };
        if walls.len() >= min_ops && secs(&clock) + median(&walls) > args.seconds {
            break;
        }
    }

    let first = untraced
        .iter()
        .find_map(|op| op.as_ref().ok())
        .ok_or_else(|| format!("every {} operation panicked", w.name()))?;
    let mut verdict = Verdict::default();
    for op in untraced.iter().chain(&traced) {
        verdict.judge(w, &inputs, op, first.digest);
    }
    for reason in &verdict.reasons {
        eprintln!("perfbench: FAILED {reason}");
    }
    let run_s = |ops: &[Result<OpOutcome, String>]| -> Vec<f64> {
        ops.iter()
            .filter_map(|op| op.as_ref().ok())
            .map(|op| op.run_s)
            .collect()
    };
    let untraced_s = run_s(&untraced);
    let Some(panel) = first.panels.last() else {
        return Err("operation made no selection".to_string());
    };
    let db = &inputs.db[..panel.db_len];
    // Context printed ahead of the result line: the panel digest (did a
    // change alter the output?), phantom patterns, and grow's upkeep.
    let g = &first.grow;
    let common = format!(
        "\"workload\": \"{}\", \"data_seed\": {}, \"seed\": {}, \"digest\": \"{:016x}\", \"checked_patterns\": {}, \"phantom_patterns\": {}, \"grow\": {{\"assigned\": {}, \"outliers\": {}, \"rebuilt_csgs\": {}, \"new_clusters\": {}}}",
        w.name(),
        args.data_seed,
        args.seed,
        first.digest,
        verdict.patterns,
        verdict.phantoms,
        g.assigned,
        g.outliers,
        g.rebuilt_csgs,
        g.new_clusters,
    );

    let metrics: Vec<(&str, &str, f64)> = if args.trace {
        let traced_s = run_s(&traced);
        let per_op: Vec<Vec<(&str, f64)>> = traced
            .iter()
            .filter_map(|op| op.as_ref().ok())
            .map(layers::op_metrics)
            .collect();
        let rec = Recorder::enabled();
        {
            let _span = rec.span("bench.evaluate");
            WorkloadEvaluation::evaluate_recorded(&panel.patterns, &inputs.queries, &rec);
        }
        let snap = rec.snapshot().ok_or("enabled recorder has no snapshot")?;
        let mut values: BTreeMap<&str, f64> = BTreeMap::new();
        for (name, _) in layers::PER_LAYER {
            let samples: Vec<f64> = per_op
                .iter()
                .filter_map(|m| m.iter().find(|(n, _)| n == name).map(|(_, v)| *v))
                .collect();
            values.insert(name, median(&samples));
        }
        values.insert("eval.s", layers::span_s(&snap, "bench.evaluate"));
        values.insert(
            "eval.workload.steps",
            layers::counter(&snap, "eval.workload.steps"),
        );
        let overhead = 100.0 * (median(&traced_s) / median(&untraced_s) - 1.0);
        values.insert("trace_overhead_pct", overhead);
        let total = median(&traced_s);
        let share = |name: &str| 100.0 * values.get(name).copied().unwrap_or(0.0) / total;
        println!(
            "{{{common}, \"trace\": 1, \"untraced_run_s\": {}, \"traced_run_s\": {}, \"layer_share_pct\": {{\"cluster\": {:.1}, \"csg\": {:.1}, \"select\": {:.1}, \"select.score\": {:.1}, \"grow.insert\": {:.1}, \"grow.refresh\": {:.1}}}}}",
            json_list(&untraced_s),
            json_list(&traced_s),
            share("cluster.s"),
            share("csg.s"),
            share("select.s"),
            share("select.score.s"),
            share("grow.insert.s"),
            share("grow.refresh.s"),
        );
        layers::PER_LAYER
            .iter()
            .map(|(name, unit)| (*name, *unit, values.get(name).copied().unwrap_or(0.0)))
            .collect()
    } else {
        let eval = WorkloadEvaluation::evaluate(&panel.patterns, &inputs.queries);
        println!(
            "{{{common}, \"trace\": 0, \"run_s\": {}, \"setup_s\": {}}}",
            json_list(&untraced_s),
            json_list(&setup_s),
        );
        vec![
            ("run_s", "s", median(&untraced_s)),
            ("setup_s", "s", median(&setup_s)),
            ("peak_rss_mb", "MB", peak_rss_mb()?),
            ("mu_pct", "%", 100.0 * eval.mean_reduction()),
            ("mp_pct", "%", eval.missed_percentage()),
            ("scov", "fraction", subgraph_coverage(&panel.patterns, db)),
            ("degraded_searches", "count", first.degraded as f64),
            ("embedded_pct", "%", verdict.embedded_pct()),
        ]
    };
    println!("{}", result_line(&verdict, &metrics)?);
    Ok(())
}
