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

use catapult_bench::{run_experiment, Scale, ALL_ABLATIONS, ALL_EXPERIMENTS};
use catapult_obs::{manifest, Recorder, RunManifest, Stopwatch};
use std::path::Path;

/// Experiment ids as `&'static str` span names (spans borrow their name).
fn span_name(id: &str) -> &'static str {
    ALL_EXPERIMENTS
        .iter()
        .chain(ALL_ABLATIONS.iter())
        .find(|s| **s == id)
        .copied()
        .unwrap_or("experiment")
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut scale = Scale::Quick;
    let mut ids: Vec<String> = Vec::new();
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
            "all" => ids.extend(ALL_EXPERIMENTS.iter().map(|s| s.to_string())),
            "ablations" => ids.extend(ALL_ABLATIONS.iter().map(|s| s.to_string())),
            other => ids.push(other.to_string()),
        }
    }
    if ids.is_empty() {
        eprintln!(
            "usage: experiments [all | ablations | exp1..exp10 | ablation1..ablation5]... [--scale smoke|quick|full] [--metrics-out FILE] [--force]"
        );
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
    let mut results = catapult_obs::json::Value::array();
    for id in ids {
        let start = Stopwatch::start();
        let _span = recorder.span(span_name(&id));
        match run_experiment(&id, scale) {
            Some(report) => {
                println!("{report}");
                let secs = start.elapsed().as_secs_f64();
                println!("[{id} completed in {secs:.1}s]\n");
                let mut e = catapult_obs::json::Value::object();
                e.set("id", id.as_str());
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
        println!("wrote metrics to {path}");
    }
}
