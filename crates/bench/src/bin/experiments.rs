//! Experiment harness CLI.
//!
//! ```text
//! cargo run --release -p catapult-bench --bin experiments -- all
//! cargo run --release -p catapult-bench --bin experiments -- exp3 exp9 --scale quick
//! ```
//!
//! `--metrics-out FILE` writes the same schema-versioned run manifest the
//! `catapult` CLI emits: one span per experiment plus per-experiment wall
//! clock in a `results` section (`--force` overwrites a file written at a
//! different schema version).
//!
//! A closed stdout (`experiments … | head -n 1`) only silences the
//! printed reports: the run, and its manifest, carry on and exit 0.

use catapult_bench::{run_experiment, Scale, ALL_ABLATIONS, ALL_EXPERIMENTS};
use catapult_obs::{manifest, Recorder, RunManifest, Stopwatch};
use std::fmt;
use std::io::{ErrorKind, StdoutLock, Write};
use std::path::Path;

/// Line writer over the locked stdout that treats a reader that went
/// away as the end of printing, not as an error.
struct Out {
    stdout: StdoutLock<'static>,
    closed: bool,
}

impl Out {
    fn line(&mut self, args: fmt::Arguments<'_>) {
        if self.closed {
            return;
        }
        match writeln!(self.stdout, "{args}").and_then(|()| self.stdout.flush()) {
            Ok(()) => {}
            Err(e) if e.kind() == ErrorKind::BrokenPipe => self.closed = true,
            Err(e) => {
                eprintln!("experiments: cannot write to stdout: {e}");
                std::process::exit(1);
            }
        }
    }
}

/// A known experiment id as a `&'static str` (spans borrow their name),
/// or `None` for an unknown one.
fn known_id(id: &str) -> Option<&'static str> {
    ALL_EXPERIMENTS
        .iter()
        .chain(ALL_ABLATIONS.iter())
        .find(|s| **s == id)
        .copied()
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut scale = Scale::Quick;
    let mut ids: Vec<&'static str> = Vec::new();
    let mut metrics_out: Option<String> = None;
    let mut force = false;
    let mut it = args.iter().peekable();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--scale" => {
                let v = it.next().map(String::as_str).unwrap_or("");
                match Scale::parse(v) {
                    Some(s) => scale = s,
                    None => {
                        eprintln!("unknown scale '{v}' (smoke|quick|full)");
                        std::process::exit(2);
                    }
                }
            }
            "--metrics-out" => match it.next() {
                Some(path) => metrics_out = Some(path.clone()),
                None => {
                    eprintln!("--metrics-out needs a value");
                    std::process::exit(2);
                }
            },
            "--force" => force = true,
            "all" => ids.extend(ALL_EXPERIMENTS),
            "ablations" => ids.extend(ALL_ABLATIONS),
            // Every id is checked before any experiment runs, so a typo
            // late in the list does not cost the runs before it.
            other => match known_id(other) {
                Some(id) => ids.push(id),
                None => {
                    eprintln!("unknown experiment '{other}'");
                    std::process::exit(2);
                }
            },
        }
    }
    if ids.is_empty() {
        eprintln!(
            "usage: experiments [all | ablations | exp1..exp10 | ablation1..ablation5]... [--scale smoke|quick|full] [--metrics-out FILE] [--force]"
        );
        std::process::exit(2);
    }
    // A malformed `CATAPULT_THREADS` is a usage error up front, not a
    // panic in the first fan-out (or while the manifest is written).
    if let Err(e) = rayon::check_thread_env() {
        eprintln!("{e}");
        std::process::exit(2);
    }
    if let Some(path) = &metrics_out {
        if let Err(e) = manifest::guard_overwrite(Path::new(path), manifest::SCHEMA_VERSION, force)
        {
            eprintln!("{e}");
            std::process::exit(2);
        }
    }
    let recorder = if metrics_out.is_some() {
        Recorder::enabled()
    } else {
        Recorder::disabled()
    };
    let mut out = Out {
        stdout: std::io::stdout().lock(),
        closed: false,
    };
    let mut results = catapult_obs::json::Value::array();
    for id in ids {
        let start = Stopwatch::start();
        let _span = recorder.span(id);
        match run_experiment(id, scale) {
            Some(report) => {
                out.line(format_args!("{report}"));
                let secs = start.elapsed().as_secs_f64();
                out.line(format_args!("[{id} completed in {secs:.1}s]\n"));
                let mut e = catapult_obs::json::Value::object();
                e.set("id", id);
                e.set("secs", secs);
                results.push(e);
            }
            None => {
                eprintln!("unknown experiment '{id}'");
                std::process::exit(2);
            }
        }
    }
    if let Some(path) = metrics_out {
        let mut m = RunManifest::new("experiments");
        m.set(
            "environment",
            manifest::environment(rayon::current_threads()),
        );
        m.set("scale", scale.name());
        m.set("results", results);
        if let Some(snapshot) = recorder.snapshot() {
            m.attach_snapshot(&snapshot);
        }
        if let Err(e) = m.write(Path::new(&path), force) {
            eprintln!("failed to write {path}: {e}");
            std::process::exit(1);
        }
        out.line(format_args!("wrote metrics to {path}"));
    }
}
