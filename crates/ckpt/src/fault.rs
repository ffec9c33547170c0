//! Deterministic persistence fault injection (feature
//! `fault-injection`, test-only).
//!
//! Mirrors the kernel-level `catapult_graph::fault` harness at the
//! persistence layer: a process-global [`PersistFaultPlan`] targets the
//! N-th checkpoint **write attempt** and makes it misbehave in one of
//! the ways real systems do — a transient I/O error (exercising the
//! retry path), a torn or truncated file at the final path, a silent
//! bit-flip (caught by the checksum on load), or a crash immediately
//! after a completed write (the kill-between-stages case).
//!
//! Crash-style faults panic with [`CRASH_PAYLOAD`]; tests catch that
//! panic to simulate a process death in-process, then reopen the store
//! with `resume` and assert the recovery invariant: the resumed run's
//! output is byte-identical to an uninterrupted one.
//!
//! The plan is global state, so tests that install one must serialize
//! on a shared lock and [`clear`] it when done.

// The persistence fault plan and its write-attempt counter are
// process-global by design, sanctioned here by the root clippy.toml's
// `disallowed-types` policy.
#![allow(clippy::disallowed_types)]

use std::io;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard};

/// Panic message used by crash-style faults, so supervising tests can
/// tell an injected death from a genuine bug.
pub const CRASH_PAYLOAD: &str = "injected persistence crash (fault-injection plan)";

/// What the targeted write attempt does instead of succeeding.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PersistFaultKind {
    /// Fail with a synthetic transient I/O error for `times`
    /// consecutive attempts starting at the target, then let the write
    /// proceed — exercises the store's bounded write retry.
    IoError {
        /// How many consecutive attempts fail.
        times: u32,
    },
    /// Leave a torn file at the final path (prefix of the image plus
    /// garbage), then crash.
    TornWrite,
    /// Leave a truncated prefix of the image at the final path, then
    /// crash.
    Truncate,
    /// Leave the full image with one bit flipped at the final path,
    /// then crash. Only the trailing checksum can catch this.
    BitFlip,
    /// Complete the write normally, then crash — a process killed
    /// between stages.
    Crash,
}

/// A single armed fault: `kind` strikes at the `at`-th (1-based)
/// checkpoint write attempt since [`install`].
#[derive(Clone, Copy, Debug)]
pub struct PersistFaultPlan {
    /// What goes wrong.
    pub kind: PersistFaultKind,
    /// 1-based write-attempt index to target.
    pub at: u64,
}

static PLAN: Mutex<Option<PersistFaultPlan>> = Mutex::new(None);
static WRITES: AtomicU64 = AtomicU64::new(0);

/// The plan lock, surviving poisoning: crash faults panic by design,
/// and a poisoned plan must not cascade into unrelated tests.
fn plan_slot() -> MutexGuard<'static, Option<PersistFaultPlan>> {
    PLAN.lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Arm `plan` and reset the write-attempt counter.
pub fn install(plan: PersistFaultPlan) {
    *plan_slot() = Some(plan);
    WRITES.store(0, Ordering::SeqCst);
}

/// Disarm any active plan (does not reset the counter, so a test can
/// still read how far the run got).
pub fn clear() {
    *plan_slot() = None;
}

/// Checkpoint write attempts observed since the last [`install`].
#[must_use]
pub fn writes() -> u64 {
    WRITES.load(Ordering::SeqCst)
}

/// Hook called by the store before each write attempt. Returns
/// `Ok(())` to let the real atomic write proceed, `Err` to simulate a
/// failed attempt, or — for crash-style faults — performs its own
/// damage at `final_path` and never returns.
pub(crate) fn intercept_write(final_path: &Path, image: &[u8]) -> io::Result<()> {
    let n = WRITES.fetch_add(1, Ordering::SeqCst) + 1;
    let Some(plan) = *plan_slot() else {
        return Ok(());
    };
    match plan.kind {
        PersistFaultKind::IoError { times } => {
            if n >= plan.at && n < plan.at + u64::from(times) {
                return Err(io::Error::new(
                    io::ErrorKind::Interrupted,
                    format!("injected transient I/O failure (write attempt {n})"),
                ));
            }
            Ok(())
        }
        _ if n != plan.at => Ok(()),
        PersistFaultKind::TornWrite => {
            // A tear: some of the new bytes made it, then the tail is
            // whatever the disk had — modelled as garbage.
            let keep = image.len() / 2;
            let mut torn = image[..keep].to_vec();
            torn.extend_from_slice(&[0xEE; 13]);
            std::fs::write(final_path, &torn)?;
            crash()
        }
        PersistFaultKind::Truncate => {
            std::fs::write(final_path, &image[..image.len() / 3])?;
            crash()
        }
        PersistFaultKind::BitFlip => {
            let mut bad = image.to_vec();
            let mid = bad.len() / 2;
            bad[mid] ^= 0x01;
            std::fs::write(final_path, &bad)?;
            crash()
        }
        PersistFaultKind::Crash => {
            // The rename completed; the process died right after.
            std::fs::write(final_path, image)?;
            crash()
        }
    }
}

/// Simulate the process death.
fn crash() -> ! {
    // Deliberate: fault injection models a process dying mid-run; the
    // panic unwinds to the supervising test's catch_unwind, standing in
    // for SIGKILL without leaving the test harness.
    #[allow(clippy::panic)]
    {
        panic!("{CRASH_PAYLOAD}")
    }
}

#[cfg(test)]
// The tests catch the injected crashes.
#[allow(clippy::disallowed_methods)]
mod tests {
    use super::*;
    use crate::{serial_writes, CheckpointConfig, CkptError, Fingerprint, StageStore};
    use catapult_obs::Recorder;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::path::{Path, PathBuf};

    fn fp() -> Fingerprint {
        Fingerprint {
            dataset_hash: 1,
            config_hash: 2,
            eta_min: 3,
            eta_max: 8,
            gamma: 30,
        }
    }

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("catapult-ckpt-fault-{tag}"));
        std::fs::remove_dir_all(&dir).ok();
        dir
    }

    fn open(dir: &Path, resume: bool, recorder: Recorder) -> StageStore {
        let mut c = CheckpointConfig::new(dir);
        c.resume = resume;
        StageStore::open(&c, fp(), recorder).unwrap()
    }

    #[test]
    fn transient_io_error_is_retried_and_counted() {
        let _guard = serial_writes();
        let dir = tmp_dir("retry");
        let recorder = Recorder::enabled();
        let store = open(&dir, false, recorder.clone());
        install(PersistFaultPlan {
            kind: PersistFaultKind::IoError { times: 2 },
            at: 1,
        });
        store.save("mining", 0, b"survives retries").unwrap();
        clear();
        let snapshot = recorder.snapshot().unwrap();
        let get = |name: &str| {
            snapshot
                .counters
                .iter()
                .find(|(n, _)| n == name)
                .map(|(_, v)| *v)
        };
        assert_eq!(get("ckpt.store.retry"), Some(2));
        assert_eq!(get("ckpt.store.write"), Some(1));
        let resumed = open(&dir, true, Recorder::disabled());
        assert_eq!(
            resumed.load("mining").unwrap().unwrap().1,
            b"survives retries"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn persistent_io_error_exhausts_retries_and_surfaces() {
        let _guard = serial_writes();
        let dir = tmp_dir("exhaust");
        let store = open(&dir, false, Recorder::disabled());
        install(PersistFaultPlan {
            kind: PersistFaultKind::IoError { times: 10 },
            at: 1,
        });
        let err = store.save("mining", 0, b"never lands").unwrap_err();
        clear();
        assert!(matches!(err, CkptError::Io { .. }), "got {err:?}");
        assert_eq!(writes(), 3, "default policy makes three attempts");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corrupting_crashes_leave_files_the_loader_rejects() {
        for kind in [
            PersistFaultKind::TornWrite,
            PersistFaultKind::Truncate,
            PersistFaultKind::BitFlip,
        ] {
            let _guard = serial_writes();
            let dir = tmp_dir(&format!("{kind:?}"));
            let store = open(&dir, false, Recorder::disabled());
            store.save("mining", 0, b"good earlier stage").unwrap();
            install(PersistFaultPlan { kind, at: 1 });
            let death = catch_unwind(AssertUnwindSafe(|| store.save("fine", 0, b"doomed")));
            clear();
            let payload = death.unwrap_err();
            let msg = payload
                .downcast_ref::<String>()
                .cloned()
                .unwrap_or_default();
            assert_eq!(msg, CRASH_PAYLOAD, "case {kind:?}");

            // "Restart": resume from the same directory. The damaged
            // stage is rejected and recomputed; the earlier stage loads.
            let recorder = Recorder::enabled();
            let resumed = open(&dir, true, recorder.clone());
            assert_eq!(resumed.load("fine").unwrap(), None, "case {kind:?}");
            assert_eq!(
                resumed.load("mining").unwrap().unwrap().1,
                b"good earlier stage",
                "case {kind:?}"
            );
            let snapshot = recorder.snapshot().unwrap();
            assert!(
                snapshot
                    .counters
                    .iter()
                    .any(|(n, v)| n == "ckpt.store.reject" && *v == 1),
                "case {kind:?}: reject not counted"
            );
            std::fs::remove_dir_all(&dir).ok();
        }
    }

    #[test]
    fn crash_after_completed_write_loses_nothing() {
        let _guard = serial_writes();
        let dir = tmp_dir("crash-after");
        let store = open(&dir, false, Recorder::disabled());
        install(PersistFaultPlan {
            kind: PersistFaultKind::Crash,
            at: 1,
        });
        let death = catch_unwind(AssertUnwindSafe(|| store.save("csg", 4, b"landed")));
        clear();
        assert!(death.is_err());
        let resumed = open(&dir, true, Recorder::disabled());
        let (seq, payload) = resumed.load("csg").unwrap().unwrap();
        assert_eq!((seq, payload.as_slice()), (4, b"landed".as_slice()));
        std::fs::remove_dir_all(&dir).ok();
    }
}
