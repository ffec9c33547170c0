//! Crash-safe stage checkpoints for resumable CATAPULT pipeline runs.
//!
//! Selection over a production-scale database is a long, restartable
//! batch job (§6 measures clustering alone in tens of seconds and the
//! large-network front-end of arXiv:2107.09952 will grow it by orders of
//! magnitude), yet historically nothing was persisted until the final
//! `SelectionResult` — a process death discarded the entire run. This
//! crate is the persistence layer that makes restarts cheap:
//!
//! * [`StageStore`] — one checkpoint file per pipeline boundary
//!   (`mining` → `coarse` → `fine` → `clustering` → `csg` →
//!   `selection`), written **atomically** (temp file + rename on the
//!   same directory) so a crash can never leave a half-written file at
//!   the final path.
//! * Every file is **schema-versioned**, carries the run's
//!   [`Fingerprint`] (input-dataset hash + config hash + pattern
//!   budget), and ends in an FNV-1a checksum over the entire contents.
//!   A stale or foreign checkpoint is rejected with a diagnostic naming
//!   the first mismatched fingerprint field; a corrupt one (torn write,
//!   truncation, bit-flip) fails its checksum and is recomputed — never
//!   silently reused.
//! * Transient I/O failures during a write are retried with bounded
//!   exponential backoff (3 tries, 5 ms then 10 ms apart).
//! * Checkpoint traffic is observable: each save/load runs under a
//!   recorder span and bumps the `ckpt.store.{write,load,reject,retry}`
//!   counters that land in the run manifest.
//! * [`wire`] — the minimal length-prefixed little-endian encoding the
//!   payloads use; byte-identical round-trips are a tested invariant
//!   (the resume-equals-uninterrupted property depends on it).
//! * [`fault`] (behind the `fault-injection` feature) — deterministic
//!   persistence faults: the K-th checkpoint write can be made to tear,
//!   truncate, bit-flip, fail transiently, or crash the run right after
//!   completing, so every recovery path is testable in-process.
// Lint policy: see [workspace.lints] in the root Cargo.toml.
#![warn(clippy::print_stderr)]
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used, clippy::panic))]

pub mod wire;

mod store;

pub use store::{CheckpointConfig, CkptError, Fingerprint, StageStore, SCHEMA_VERSION};

#[cfg(feature = "fault-injection")]
pub mod fault;

/// FNV-1a 64-bit offset basis.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a 64-bit prime.
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Streaming FNV-1a 64-bit hasher — the checksum and fingerprint hash.
///
/// Deliberately non-cryptographic: checkpoints defend against crashes
/// and operator error (wrong directory, changed config), not against an
/// adversary who can already write arbitrary files.
#[derive(Clone, Copy, Debug)]
pub struct Fnv64(u64);

impl Default for Fnv64 {
    fn default() -> Self {
        Fnv64(FNV_OFFSET)
    }
}

impl Fnv64 {
    /// Fresh hasher at the offset basis.
    pub fn new() -> Self {
        Self::default()
    }

    /// Absorb bytes.
    pub fn update(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(FNV_PRIME);
        }
    }

    /// The digest so far.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// One-shot FNV-1a 64 of `bytes`.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = Fnv64::new();
    h.update(bytes);
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::fnv1a;

    #[test]
    fn fnv_reference_vectors() {
        // Published FNV-1a 64 test vectors.
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x8594_4171_f739_67e8);
    }
}
