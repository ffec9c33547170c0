//! The run manifest's `environment.git_commit` names the checkout that
//! holds the `catapult` binary, never a repository that merely contains
//! the working directory.
#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use std::process::Command;

#[test]
fn git_commit_ignores_the_working_directory() {
    let work = std::env::temp_dir().join(format!("catapult-git-commit-{}", std::process::id()));
    std::fs::remove_dir_all(&work).ok();
    std::fs::create_dir_all(work.join(".git")).unwrap();
    let fake = "0123456789abcdef0123456789abcdef01234567";
    std::fs::write(work.join(".git").join("HEAD"), format!("{fake}\n")).unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_catapult"))
        .args([
            "generate",
            "--profile",
            "aids",
            "--count",
            "3",
            "--out",
            "db.txt",
            "--metrics-out",
            "m.json",
        ])
        .current_dir(&work)
        .output()
        .expect("spawn catapult");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let manifest = std::fs::read_to_string(work.join("m.json")).unwrap();
    assert!(manifest.contains("\"git_commit\""), "{manifest}");
    assert!(
        !manifest.contains(fake),
        "recorded the working directory's repository:\n{manifest}"
    );
    std::fs::remove_dir_all(&work).ok();
}
