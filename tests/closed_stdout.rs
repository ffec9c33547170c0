//! The `catapult` binary against a reader that closes its end of the
//! pipe before any output is written (`catapult stats … | head -1`): a
//! broken pipe is a normal exit 0, never a panic with a backtrace.
#![cfg(unix)]
#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use std::path::PathBuf;
use std::process::{Command, Stdio};

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_catapult"))
}

#[test]
fn closed_stdout_is_a_clean_exit() {
    let work: PathBuf = std::env::temp_dir().join("catapult-closed-stdout");
    std::fs::remove_dir_all(&work).ok();
    std::fs::create_dir_all(&work).unwrap();
    let db = work.join("db.txt");
    let db_s = db.to_str().unwrap();
    let generated = bin()
        .args([
            "generate",
            "--profile",
            "aids",
            "--count",
            "30",
            "--out",
            db_s,
        ])
        .output()
        .expect("spawn generate");
    assert!(generated.status.success());

    // `select` without `--out` prints its patterns to stdout after a run
    // long enough that the read end is closed well before the write.
    let runs: [&[&str]; 2] = [
        &["stats", "--db", db_s],
        &[
            "select",
            "--db",
            db_s,
            "--gamma",
            "3",
            "--min-size",
            "3",
            "--max-size",
            "5",
            "--walks",
            "10",
        ],
    ];
    for args in runs {
        let mut child = bin()
            .args(args)
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .expect("spawn catapult");
        drop(child.stdout.take());
        let out = child.wait_with_output().expect("reap catapult");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(0), "{args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
    }
    std::fs::remove_dir_all(&work).ok();
}
