//! Kill-and-resume integration test against the real `catapult` binary:
//! SIGKILL a checkpointed `select` run mid-flight, resume it, and
//! require the resumed pattern file to be byte-identical to an
//! uninterrupted golden run's, `%` summary lines included. This is the
//! process-level counterpart of the in-process fault sweep in
//! `tests/resume_equivalence.rs` — no fault injection, an actual
//! `kill -9`. A second test pins the same file across thread counts.
#![cfg(unix)]
#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use std::path::{Path, PathBuf};
use std::process::Command;

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_catapult"))
}

fn run_ok(args: &[&str]) {
    let out = bin().args(args).output().expect("spawn catapult");
    assert!(
        out.status.success(),
        "catapult {args:?} failed:\nstdout: {}\nstderr: {}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr),
    );
}

/// The whole pattern file, `%` summary lines included.
fn read(path: &Path) -> String {
    std::fs::read_to_string(path).expect("read pattern file")
}

fn select_args<'a>(db: &'a str, ckpt_dir: &'a str, out: &'a str, resume: bool) -> Vec<&'a str> {
    let mut a = vec![
        "select",
        "--db",
        db,
        "--gamma",
        "6",
        "--min-size",
        "3",
        "--max-size",
        "6",
        "--walks",
        "30",
        "--seed",
        "17",
        "--checkpoint-dir",
        ckpt_dir,
        "--out",
        out,
    ];
    if resume {
        a.push("--resume");
    }
    a
}

fn any_checkpoint(dir: &Path) -> bool {
    std::fs::read_dir(dir).is_ok_and(|entries| {
        entries
            .flatten()
            .any(|e| e.file_name().to_string_lossy().ends_with(".ckpt"))
    })
}

#[test]
fn sigkill_mid_run_then_resume_matches_golden() {
    let work: PathBuf = std::env::temp_dir().join("catapult-kill-resume");
    std::fs::remove_dir_all(&work).ok();
    std::fs::create_dir_all(&work).unwrap();
    let db = work.join("db.txt");
    let db_s = db.to_str().unwrap();
    run_ok(&[
        "generate",
        "--profile",
        "emol",
        "--count",
        "150",
        "--seed",
        "9",
        "--out",
        db_s,
    ]);

    // Golden: one uninterrupted checkpointed run.
    let golden_out = work.join("golden.txt");
    let dir_a = work.join("ckpt-golden");
    run_ok(&select_args(
        db_s,
        dir_a.to_str().unwrap(),
        golden_out.to_str().unwrap(),
        false,
    ));
    let golden = read(&golden_out);
    assert!(
        golden.lines().any(|l| !l.starts_with('%')),
        "golden run selected no patterns"
    );

    // Victim: same run, SIGKILLed as soon as its first checkpoint lands.
    let victim_out = work.join("victim.txt");
    let dir_b = work.join("ckpt-victim");
    let dir_b_s = dir_b.to_str().unwrap();
    let mut child = bin()
        .args(select_args(
            db_s,
            dir_b_s,
            victim_out.to_str().unwrap(),
            false,
        ))
        .spawn()
        .expect("spawn victim");
    // Poll (bounded, no wall clock needed) until a checkpoint exists or
    // the victim finishes on its own — either way the directory is in a
    // state a resume must cope with.
    for _ in 0..3000 {
        if any_checkpoint(&dir_b) || child.try_wait().expect("try_wait").is_some() {
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(10));
    }
    child.kill().ok(); // SIGKILL; no-op if it already exited
    child.wait().expect("reap victim");

    // Resume and compare against the golden patterns.
    run_ok(&select_args(
        db_s,
        dir_b_s,
        victim_out.to_str().unwrap(),
        true,
    ));
    assert_eq!(
        read(&victim_out),
        golden,
        "resumed run diverged from the uninterrupted golden run"
    );

    // A second resume (nothing left to do) reproduces it again.
    run_ok(&select_args(
        db_s,
        dir_b_s,
        victim_out.to_str().unwrap(),
        true,
    ));
    assert_eq!(read(&victim_out), golden);
    std::fs::remove_dir_all(&work).ok();
}

#[test]
fn select_out_is_byte_identical_across_thread_counts() {
    let work: PathBuf = std::env::temp_dir().join("catapult-select-threads");
    std::fs::remove_dir_all(&work).ok();
    std::fs::create_dir_all(&work).unwrap();
    let db = work.join("db.txt");
    let db_s = db.to_str().unwrap();
    run_ok(&[
        "generate",
        "--profile",
        "emol",
        "--count",
        "40",
        "--seed",
        "4",
        "--out",
        db_s,
    ]);
    let select = |threads: &str| {
        let out = work.join(format!("patterns-{threads}.txt"));
        run_ok(&[
            "select",
            "--db",
            db_s,
            "--gamma",
            "6",
            "--min-size",
            "3",
            "--max-size",
            "6",
            "--walks",
            "30",
            "--threads",
            threads,
            "--out",
            out.to_str().unwrap(),
        ]);
        read(&out)
    };
    let one = select("1");
    assert!(one.starts_with("% "), "summary header: {one}");
    assert_eq!(select("8"), one, "pattern file differs across --threads");
    std::fs::remove_dir_all(&work).ok();
}
