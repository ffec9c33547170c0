//! Argument handling of the `experiments` binary, run as a subprocess.
#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use std::process::Command;

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
