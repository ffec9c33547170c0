//! Argument handling of the `experiments` binary, run as a subprocess.
#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use std::process::{Command, Stdio};

/// An unknown id anywhere in the list is refused before any experiment
/// runs: a typo at the end of a long `--scale full` list must not cost
/// the runs before it.
#[test]
fn unknown_id_is_refused_before_any_experiment_runs() {
    let dir = std::env::temp_dir().join(format!("catapult-experiments-cli-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let manifest = dir.join("m.json");
    let out = Command::new(env!("CARGO_BIN_EXE_experiments"))
        .args(["exp10", "exp99", "--scale", "smoke", "--metrics-out"])
        .arg(&manifest)
        .output()
        .expect("spawn experiments");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(
        out.status.code(),
        Some(2),
        "stdout: {stdout}\nstderr: {stderr}"
    );
    assert!(stderr.contains("unknown experiment 'exp99'"), "{stderr}");
    assert!(
        stdout.is_empty(),
        "an experiment ran before the refusal:\n{stdout}"
    );
    assert!(!manifest.exists(), "a refused run writes no manifest");
    std::fs::remove_dir_all(&dir).ok();
}

/// A reader that closes its end of the pipe before any report is
/// printed (`experiments … | head -n 1`) ends the printing, not the run:
/// exit 0, no panic, and the manifest is still written.
#[cfg(unix)]
#[test]
fn closed_stdout_is_a_clean_exit() {
    let dir = std::env::temp_dir().join(format!(
        "catapult-experiments-closed-{}",
        std::process::id()
    ));
    std::fs::create_dir_all(&dir).unwrap();
    let manifest = dir.join("m.json");
    // Two runs: even if the first report lands in the pipe buffer before
    // the read end is dropped, the second write meets a closed pipe.
    let mut child = Command::new(env!("CARGO_BIN_EXE_experiments"))
        .args(["exp10", "exp10", "--scale", "smoke", "--metrics-out"])
        .arg(&manifest)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn experiments");
    drop(child.stdout.take());
    let out = child.wait_with_output().expect("reap experiments");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
    assert!(manifest.exists(), "the run goes on to write its manifest");
    std::fs::remove_dir_all(&dir).ok();
}
