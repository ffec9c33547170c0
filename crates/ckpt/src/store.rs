//! The stage checkpoint store: atomic writes, fingerprint validation,
//! bounded retry, and the resume/overwrite policy for the checkpoint
//! directory.
//!
//! ## File format
//!
//! Every `<stage>.ckpt` file is laid out as
//!
//! ```text
//! magic            8 bytes   b"CATCKPT1"
//! schema_version   u32 le    SCHEMA_VERSION at write time
//! stage            str       length-prefixed stage name
//! dataset_hash     u64 le    \
//! config_hash      u64 le    | the run Fingerprint
//! eta_min          u64 le    |
//! eta_max          u64 le    |
//! gamma            u64 le    /
//! seq              u64 le    intra-stage sequence (chunked stages)
//! payload          bytes     length-prefixed stage payload
//! checksum         u64 le    FNV-1a 64 over every prior byte
//! ```
//!
//! and is produced by writing the whole image to a hidden temp file in
//! the same directory, then `rename`-ing over the final path. A crash
//! at any instant therefore leaves either the old complete file or the
//! new complete file at `<stage>.ckpt` — never a prefix.
//!
//! ## Load policy
//!
//! * **Absent** file → `Ok(None)`: compute the stage from scratch.
//! * **Corrupt** file (bad magic, short read, checksum mismatch,
//!   malformed payload framing) → warn on stderr, bump
//!   `ckpt.store.reject`, delete the carcass, `Ok(None)`. Corruption is
//!   what crashes produce; recomputing is always safe and the result is
//!   identical by the determinism invariant.
//! * **Undecodable** payload (the checksum held but the stage decoder
//!   rejects it: schema drift within a version) → the same warn, delete
//!   and recompute, through [`StageStore::load_decoded`].
//! * **Foreign** file (schema version or any fingerprint field differs)
//!   → hard error naming the first mismatched field. This is operator
//!   error — resuming someone else's run would silently produce wrong
//!   output, so the run must not proceed.

use crate::{fnv1a, wire, Fnv64};
use catapult_obs::Recorder;
use std::fmt;
use std::io;
use std::path::{Path, PathBuf};
use std::time::Duration;

/// Version of the checkpoint layout. Bump on any field add/remove/
/// reorder in the header or in any stage payload encoding.
///
/// v2: the fine-clustering payload gained a persisted similarity-cache
/// section (class-pair memoization entries).
/// v3: every kernel tally lost its `cancelled` counter (four `u64`s, not
/// five).
/// v4: every kernel tally is three `u64`s (`exact`, `budget_exhausted`,
/// `failed`), not four.
/// v5: every kernel tally is two `u64`s (`exact`, `budget_exhausted`),
/// not three.
/// v6: the fine-clustering payload lost its in-flight split section (the
/// seed and partial similarity rows); a fine flush is the last split
/// boundary plus the similarity cache.
pub const SCHEMA_VERSION: u32 = 6;

/// Total tries for a checkpoint write before its I/O error surfaces.
/// Checkpoints are an availability feature, but a write that keeps
/// failing is a real error (disk full, permissions), so the bound is
/// small.
const WRITE_ATTEMPTS: u32 = 3;

/// Sleep before the first write retry; it doubles for each further one.
const FIRST_BACKOFF: Duration = Duration::from_millis(5);

/// Leading magic of every checkpoint file.
const MAGIC: &[u8; 8] = b"CATCKPT1";

/// File-name suffix of a stage checkpoint.
const CKPT_SUFFIX: &str = ".ckpt";

/// Identity of a run, embedded in every checkpoint it writes.
///
/// Two runs share a fingerprint iff they would compute identical
/// results: same input database, same pipeline configuration, same
/// pattern budget. Thread count is deliberately **excluded** — results
/// are byte-identical across pool sizes, so a run interrupted at
/// 8 threads may resume at 1 (the resume-equivalence test exercises
/// exactly this).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Fingerprint {
    /// FNV-1a over the input database (labels + edges of every graph,
    /// in order).
    pub dataset_hash: u64,
    /// FNV-1a over the wire encoding of the pipeline configuration.
    pub config_hash: u64,
    /// Pattern budget: minimum pattern size.
    pub eta_min: u64,
    /// Pattern budget: maximum pattern size.
    pub eta_max: u64,
    /// Pattern budget: pattern count γ.
    pub gamma: u64,
}

impl Fingerprint {
    /// The fingerprint fields in wire order, paired with the names used
    /// in mismatch diagnostics.
    fn fields(&self) -> [(&'static str, u64); 5] {
        [
            ("dataset_hash", self.dataset_hash),
            ("config_hash", self.config_hash),
            ("budget.eta_min", self.eta_min),
            ("budget.eta_max", self.eta_max),
            ("budget.gamma", self.gamma),
        ]
    }
}

/// How a run uses its checkpoint directory.
#[derive(Clone, Debug)]
pub struct CheckpointConfig {
    /// Directory holding the `<stage>.ckpt` files.
    pub dir: PathBuf,
    /// Load and reuse compatible checkpoints found in `dir`. Off, an
    /// existing checkpointed run in `dir` is refused unless `force`.
    pub resume: bool,
    /// Overwrite (wipe) an existing checkpointed run instead of
    /// refusing it.
    pub force: bool,
    /// Similarity entries computed between intra-stage checkpoint
    /// flushes in the chunked fine-clustering stage.
    pub chunk_pairs: usize,
}

impl CheckpointConfig {
    /// Config with default policy: fresh run, no force, default
    /// chunking.
    #[must_use]
    pub fn new(dir: impl Into<PathBuf>) -> CheckpointConfig {
        CheckpointConfig {
            dir: dir.into(),
            resume: false,
            force: false,
            chunk_pairs: 4096,
        }
    }
}

/// Why a checkpoint operation failed.
#[derive(Debug)]
pub enum CkptError {
    /// Filesystem error (after retries, for writes).
    Io {
        /// The path being read or written.
        path: String,
        /// The underlying error.
        source: io::Error,
    },
    /// The checkpoint directory already holds a previous run's
    /// checkpoints and neither `--resume` nor `--force` was given.
    WouldOverwrite {
        /// The refused directory.
        dir: String,
    },
    /// The checkpoint was written by a different checkpoint-layout
    /// version.
    SchemaMismatch {
        /// The offending file.
        path: String,
        /// The version found in the file.
        found: u32,
    },
    /// The checkpoint belongs to a different run: `field` is the first
    /// fingerprint field that differs.
    FingerprintMismatch {
        /// The offending file.
        path: String,
        /// Name of the first mismatched fingerprint field.
        field: &'static str,
        /// The value stored in the checkpoint.
        found: u64,
        /// The value this run expects.
        expected: u64,
    },
}

impl fmt::Display for CkptError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CkptError::Io { path, source } => write!(f, "{path}: checkpoint I/O error: {source}"),
            CkptError::WouldOverwrite { dir } => {
                let reason = "checkpoint directory already contains stage checkpoints \
                              (pass --resume to continue that run)";
                write!(
                    f,
                    "{}",
                    catapult_obs::manifest::overwrite_refusal(dir, reason)
                )
            }
            CkptError::SchemaMismatch { path, found } => write!(
                f,
                "{path}: checkpoint has schema version {found}, this build writes \
                 {SCHEMA_VERSION}; delete the checkpoint directory (or rerun with \
                 --force) to start over"
            ),
            CkptError::FingerprintMismatch {
                path,
                field,
                found,
                expected,
            } => write!(
                f,
                "{path}: checkpoint fingerprint mismatch in field `{field}`: checkpoint \
                 has {found:#x}, this run expects {expected:#x} — the checkpoint belongs \
                 to a different dataset/config/budget; point --checkpoint-dir elsewhere \
                 or rerun with --force to start over"
            ),
        }
    }
}

impl std::error::Error for CkptError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CkptError::Io { source, .. } => Some(source),
            _ => None,
        }
    }
}

/// Handle on an open checkpoint directory, bound to one run's
/// [`Fingerprint`].
#[derive(Clone, Debug)]
pub struct StageStore {
    dir: PathBuf,
    fp: Fingerprint,
    resume: bool,
    chunk_pairs: usize,
    recorder: Recorder,
}

impl StageStore {
    /// Open (creating if needed) the checkpoint directory for a run
    /// with fingerprint `fp`.
    ///
    /// If the directory already holds `*.ckpt` files and the config
    /// neither resumes nor forces, the open is refused — a silent
    /// overwrite would destroy the very state a crashed run needs. With
    /// `force`, prior checkpoints are wiped and the run starts fresh.
    pub fn open(
        cfg: &CheckpointConfig,
        fp: Fingerprint,
        recorder: Recorder,
    ) -> Result<StageStore, CkptError> {
        std::fs::create_dir_all(&cfg.dir).map_err(|source| CkptError::Io {
            path: cfg.dir.display().to_string(),
            source,
        })?;
        let existing = existing_checkpoints(&cfg.dir)?;
        if !existing.is_empty() && !cfg.resume {
            if !cfg.force {
                return Err(CkptError::WouldOverwrite {
                    dir: cfg.dir.display().to_string(),
                });
            }
            for path in existing {
                std::fs::remove_file(&path).map_err(|source| CkptError::Io {
                    path: path.display().to_string(),
                    source,
                })?;
            }
        }
        Ok(StageStore {
            dir: cfg.dir.clone(),
            fp,
            resume: cfg.resume,
            chunk_pairs: cfg.chunk_pairs.max(1),
            recorder,
        })
    }

    /// The run fingerprint this store stamps on every checkpoint.
    #[must_use]
    pub fn fingerprint(&self) -> Fingerprint {
        self.fp
    }

    /// Similarity entries per intra-stage checkpoint flush.
    #[must_use]
    pub fn chunk_pairs(&self) -> usize {
        self.chunk_pairs
    }

    /// Final path of `stage`'s checkpoint file.
    #[must_use]
    pub fn stage_path(&self, stage: &str) -> PathBuf {
        self.dir.join(format!("{stage}{CKPT_SUFFIX}"))
    }

    /// Atomically write `stage`'s checkpoint, replacing any previous
    /// one. `seq` is the intra-stage sequence number (0 for
    /// whole-stage checkpoints; monotonically increasing for chunked
    /// flushes, so a torn sequence is detectable in tests).
    pub fn save(&self, stage: &'static str, seq: u64, payload: &[u8]) -> Result<(), CkptError> {
        let _span = self.recorder.span("ckpt_write");
        let image = encode_file(stage, self.fp, seq, payload);
        let path = self.stage_path(stage);
        // Hidden temp name: never matches `existing_checkpoints`, so a
        // crash mid-write cannot trip the overwrite guard on restart.
        let tmp = self.dir.join(format!(".{stage}{CKPT_SUFFIX}.tmp"));
        let mut backoff = FIRST_BACKOFF;
        let mut attempt = 1;
        loop {
            match write_once(&tmp, &path, &image) {
                Ok(()) => {
                    self.recorder.counter("ckpt.store.write").incr();
                    self.recorder.event("flight.ckpt.write", stage, seq);
                    return Ok(());
                }
                Err(_) if attempt < WRITE_ATTEMPTS => {
                    self.recorder.counter("ckpt.store.retry").incr();
                    std::thread::sleep(backoff);
                    backoff *= 2;
                    attempt += 1;
                }
                Err(source) => {
                    return Err(CkptError::Io {
                        path: path.display().to_string(),
                        source,
                    });
                }
            }
        }
    }

    /// Load `stage`'s checkpoint, if one exists and this store is in
    /// resume mode.
    ///
    /// Returns `Ok(None)` when the stage must be (re)computed: store
    /// not resuming, file absent, or file corrupt (warned, counted in
    /// `ckpt.store.reject`, and deleted). Returns an error only for
    /// real I/O failures and for schema/fingerprint mismatches — those
    /// mean the checkpoint is *valid but foreign*, and recomputing
    /// would silently clobber another run's state.
    pub fn load(&self, stage: &'static str) -> Result<Option<(u64, Vec<u8>)>, CkptError> {
        if !self.resume {
            return Ok(None);
        }
        let _span = self.recorder.span("ckpt_load");
        let path = self.stage_path(stage);
        let raw = match std::fs::read(&path) {
            Ok(raw) => raw,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(None),
            Err(source) => {
                return Err(CkptError::Io {
                    path: path.display().to_string(),
                    source,
                });
            }
        };
        match decode_file(&path, &raw, stage, self.fp) {
            Ok((seq, payload)) => {
                self.recorder.counter("ckpt.store.load").incr();
                self.recorder.event("flight.ckpt.load", stage, seq);
                Ok(Some((seq, payload)))
            }
            Err(Verdict::Corrupt(detail)) => {
                self.recorder.counter("ckpt.store.reject").incr();
                self.recorder.warn(
                    stage,
                    format!(
                        "discarding corrupt checkpoint {}: {detail}; recomputing stage `{stage}`",
                        path.display()
                    ),
                );
                // Best-effort removal; a fresh save overwrites it anyway.
                std::fs::remove_file(&path).ok();
                Ok(None)
            }
            Err(Verdict::Foreign(e)) => {
                self.recorder.counter("ckpt.store.reject").incr();
                Err(e)
            }
        }
    }

    /// [`load`](StageStore::load) `stage`'s checkpoint and `decode` its
    /// payload. A payload that passed its checksum but does not decode
    /// (schema drift within a version) is warned about, deleted and
    /// reported as absent, so the stage recomputes: recomputing is safe,
    /// reusing is not.
    pub fn load_decoded<T>(
        &self,
        stage: &'static str,
        decode: impl FnOnce(&[u8]) -> Result<T, wire::WireError>,
    ) -> Result<Option<(u64, T)>, CkptError> {
        let Some((seq, payload)) = self.load(stage)? else {
            return Ok(None);
        };
        match decode(&payload) {
            Ok(value) => Ok(Some((seq, value))),
            Err(e) => {
                self.recorder.warn(
                    stage,
                    format!("discarding undecodable {stage} checkpoint ({e}); recomputing"),
                );
                self.discard(stage)?;
                Ok(None)
            }
        }
    }

    /// Delete `stage`'s checkpoint if present (used when a later stage
    /// invalidates an earlier partial one).
    pub fn discard(&self, stage: &str) -> Result<(), CkptError> {
        let path = self.stage_path(stage);
        match std::fs::remove_file(&path) {
            Ok(()) => Ok(()),
            Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(()),
            Err(source) => Err(CkptError::Io {
                path: path.display().to_string(),
                source,
            }),
        }
    }
}

/// `*.ckpt` files currently in `dir` (sorted for determinism).
fn existing_checkpoints(dir: &Path) -> Result<Vec<PathBuf>, CkptError> {
    let entries = std::fs::read_dir(dir).map_err(|source| CkptError::Io {
        path: dir.display().to_string(),
        source,
    })?;
    let mut found = Vec::new();
    for entry in entries {
        let entry = entry.map_err(|source| CkptError::Io {
            path: dir.display().to_string(),
            source,
        })?;
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if name.ends_with(CKPT_SUFFIX) && !name.starts_with('.') {
            found.push(entry.path());
        }
    }
    found.sort();
    Ok(found)
}

/// One atomic write attempt: full image to `tmp`, rename over `path`.
fn write_once(tmp: &Path, path: &Path, image: &[u8]) -> io::Result<()> {
    #[cfg(feature = "fault-injection")]
    crate::fault::intercept_write(path, image)?;
    std::fs::write(tmp, image)?;
    std::fs::rename(tmp, path)
}

/// Serialize a complete checkpoint file image.
fn encode_file(stage: &str, fp: Fingerprint, seq: u64, payload: &[u8]) -> Vec<u8> {
    let mut enc = wire::Enc::new();
    enc.raw(MAGIC);
    enc.u32(SCHEMA_VERSION);
    enc.str(stage);
    for (_, value) in fp.fields() {
        enc.u64(value);
    }
    enc.u64(seq);
    enc.bytes(payload);
    let body = enc.into_bytes();
    let checksum = fnv1a(&body);
    let mut out = body;
    out.extend_from_slice(&checksum.to_le_bytes());
    out
}

/// Why a parsed checkpoint cannot be used.
enum Verdict {
    /// Damaged bytes — recompute.
    Corrupt(String),
    /// Valid bytes from a different run/version — hard error.
    Foreign(CkptError),
}

/// Parse and validate a checkpoint file image against the expected
/// stage name and run fingerprint.
fn decode_file(
    path: &Path,
    raw: &[u8],
    stage: &str,
    expected: Fingerprint,
) -> Result<(u64, Vec<u8>), Verdict> {
    let corrupt = |detail: &str| Verdict::Corrupt(detail.to_string());
    if raw.len() < MAGIC.len() + 8 {
        return Err(corrupt("file shorter than header"));
    }
    let (body, trailer) = raw.split_at(raw.len() - 8);
    let mut checksum = [0u8; 8];
    checksum.copy_from_slice(trailer);
    let stored = u64::from_le_bytes(checksum);
    let computed = {
        let mut h = Fnv64::new();
        h.update(body);
        h.finish()
    };
    if stored != computed {
        return Err(corrupt(&format!(
            "checksum mismatch (stored {stored:#x}, computed {computed:#x})"
        )));
    }
    let mut dec = wire::Dec::new(body);
    let magic = dec
        .raw(MAGIC.len())
        .map_err(|e| corrupt(&format!("bad header: {e}")))?;
    if magic != MAGIC {
        return Err(corrupt("bad magic"));
    }
    // Checksum has already vouched for the bytes; framing errors past
    // here mean a schema drift within the same version — treat the
    // version field as authoritative first.
    let version = dec
        .u32()
        .map_err(|e| corrupt(&format!("bad header: {e}")))?;
    if version != SCHEMA_VERSION {
        return Err(Verdict::Foreign(CkptError::SchemaMismatch {
            path: path.display().to_string(),
            found: version,
        }));
    }
    let file_stage = dec
        .str()
        .map_err(|e| corrupt(&format!("bad stage field: {e}")))?;
    if file_stage != stage {
        return Err(corrupt(&format!(
            "stage name `{file_stage}` does not match file name (expected `{stage}`)"
        )));
    }
    let mut found = [0u64; 5];
    for slot in &mut found {
        *slot = dec
            .u64()
            .map_err(|e| corrupt(&format!("bad fingerprint field: {e}")))?;
    }
    for ((field, want), got) in expected.fields().into_iter().zip(found) {
        if got != want {
            return Err(Verdict::Foreign(CkptError::FingerprintMismatch {
                path: path.display().to_string(),
                field,
                found: got,
                expected: want,
            }));
        }
    }
    let seq = dec.u64().map_err(|e| corrupt(&format!("bad seq: {e}")))?;
    let payload = dec
        .bytes()
        .map_err(|e| corrupt(&format!("bad payload: {e}")))?;
    dec.finish()
        .map_err(|e| corrupt(&format!("trailing bytes: {e}")))?;
    Ok((seq, payload))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::serial_writes;

    fn fp() -> Fingerprint {
        Fingerprint {
            dataset_hash: 0x1111,
            config_hash: 0x2222,
            eta_min: 3,
            eta_max: 8,
            gamma: 30,
        }
    }

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("catapult-ckpt-test-{tag}"));
        std::fs::remove_dir_all(&dir).ok();
        dir
    }

    fn open(dir: &Path, resume: bool) -> StageStore {
        let mut c = CheckpointConfig::new(dir);
        c.resume = resume;
        StageStore::open(&c, fp(), Recorder::disabled()).unwrap()
    }

    #[test]
    fn save_load_roundtrip() {
        let _guard = serial_writes();
        let dir = tmp_dir("roundtrip");
        let store = open(&dir, false);
        store.save("mining", 7, b"hello checkpoints").unwrap();
        // Writer isn't resuming, so it never reads its own files back.
        assert_eq!(store.load("mining").unwrap(), None);
        let resumed = open(&dir, true);
        let (seq, payload) = resumed.load("mining").unwrap().unwrap();
        assert_eq!(seq, 7);
        assert_eq!(payload, b"hello checkpoints");
        assert_eq!(resumed.load("csg").unwrap(), None, "absent stage is None");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn overwrite_guard_refuses_then_force_wipes() {
        let _guard = serial_writes();
        let dir = tmp_dir("guard");
        let store = open(&dir, false);
        store.save("mining", 0, b"x").unwrap();
        // Fresh run into a populated dir: refused, message carries the
        // shared --force suffix.
        let err =
            StageStore::open(&CheckpointConfig::new(&dir), fp(), Recorder::disabled()).unwrap_err();
        let msg = err.to_string();
        assert!(
            msg.ends_with("; pass --force to overwrite"),
            "unexpected message: {msg}"
        );
        assert!(matches!(err, CkptError::WouldOverwrite { .. }));
        // Force wipes and proceeds.
        let mut forced = CheckpointConfig::new(&dir);
        forced.force = true;
        StageStore::open(&forced, fp(), Recorder::disabled()).unwrap();
        assert!(!dir.join("mining.ckpt").exists());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corrupt_checkpoints_are_discarded_not_trusted() {
        let _guard = serial_writes();
        for (tag, mutate) in [
            (
                "truncate",
                &(|raw: &mut Vec<u8>| {
                    raw.truncate(raw.len() / 2);
                }) as &dyn Fn(&mut Vec<u8>),
            ),
            ("bitflip", &|raw: &mut Vec<u8>| {
                let mid = raw.len() / 2;
                raw[mid] ^= 0x40;
            }),
            ("torn", &|raw: &mut Vec<u8>| {
                let keep = raw.len() / 3;
                raw.truncate(keep);
                raw.extend_from_slice(&[0xAB; 11]);
            }),
            ("empty", &|raw: &mut Vec<u8>| raw.clear()),
        ] {
            let dir = tmp_dir(&format!("corrupt-{tag}"));
            let store = open(&dir, false);
            store.save("fine", 3, b"payload bytes").unwrap();
            let path = store.stage_path("fine");
            let mut raw = std::fs::read(&path).unwrap();
            mutate(&mut raw);
            std::fs::write(&path, &raw).unwrap();

            let recorder = Recorder::enabled();
            let mut resume = CheckpointConfig::new(&dir);
            resume.resume = true;
            let resumed = StageStore::open(&resume, fp(), recorder.clone()).unwrap();
            assert_eq!(resumed.load("fine").unwrap(), None, "case {tag}");
            assert!(!path.exists(), "case {tag}: carcass not removed");
            let snapshot = recorder.snapshot().unwrap();
            assert!(
                snapshot
                    .counters
                    .iter()
                    .any(|(n, v)| n == "ckpt.store.reject" && *v == 1),
                "case {tag}: reject counter missing"
            );
            std::fs::remove_dir_all(&dir).ok();
        }
    }

    #[test]
    fn foreign_fingerprint_is_a_hard_error_naming_the_field() {
        let _guard = serial_writes();
        type Mutator = fn(&mut Fingerprint);
        let cases: [(&'static str, Mutator); 5] = [
            ("dataset_hash", |f| f.dataset_hash ^= 1),
            ("config_hash", |f| f.config_hash ^= 1),
            ("budget.eta_min", |f| f.eta_min += 1),
            ("budget.eta_max", |f| f.eta_max += 1),
            ("budget.gamma", |f| f.gamma += 1),
        ];
        for (name, mutate) in cases {
            let dir = tmp_dir(&format!("foreign-{}", name.replace('.', "-")));
            let store = open(&dir, false);
            store.save("csg", 0, b"zzz").unwrap();
            let mut other = fp();
            mutate(&mut other);
            let mut resume = CheckpointConfig::new(&dir);
            resume.resume = true;
            let resumed = StageStore::open(&resume, other, Recorder::disabled()).unwrap();
            let err = resumed.load("csg").unwrap_err();
            match err {
                CkptError::FingerprintMismatch { field, .. } => {
                    assert_eq!(field, name);
                }
                other => panic!("expected FingerprintMismatch, got {other:?}"),
            }
            assert!(
                err.to_string().contains(&format!("`{name}`")),
                "diagnostic must name the field: {err}"
            );
            std::fs::remove_dir_all(&dir).ok();
        }
    }

    #[test]
    fn schema_mismatch_is_a_hard_error() {
        let _guard = serial_writes();
        // 2, 3 and 4 are the layouts with five-, four- and three-slot
        // tallies, 5 the one whose fine payload carried partial
        // similarity rows; 99 stands for a future one.
        for version in [2u32, 3, 4, 5, 99] {
            let dir = tmp_dir("schema");
            let store = open(&dir, false);
            store.save("selection", 0, b"abc").unwrap();
            let path = store.stage_path("selection");
            let raw = std::fs::read(&path).unwrap();
            // Rewrite with another version *and* a fixed-up checksum, so
            // the file is valid-but-foreign rather than corrupt.
            let body_len = raw.len() - 8;
            let mut body = raw[..body_len].to_vec();
            let ver_at = MAGIC.len();
            body[ver_at..ver_at + 4].copy_from_slice(&version.to_le_bytes());
            let sum = crate::fnv1a(&body);
            body.extend_from_slice(&sum.to_le_bytes());
            std::fs::write(&path, &body).unwrap();

            let resumed = open(&dir, true);
            let err = resumed.load("selection").unwrap_err();
            assert!(
                matches!(err, CkptError::SchemaMismatch { found, .. } if found == version),
                "{err}"
            );
            assert!(
                err.to_string().contains(&format!(
                    "schema version {version}, this build writes {SCHEMA_VERSION}"
                )),
                "{err}"
            );
            std::fs::remove_dir_all(&dir).ok();
        }
    }

    #[test]
    fn write_and_load_counters_flow_to_recorder() {
        let _guard = serial_writes();
        let dir = tmp_dir("counters");
        let recorder = Recorder::enabled();
        let mut c = CheckpointConfig::new(&dir);
        c.resume = true;
        let store = StageStore::open(&c, fp(), recorder.clone()).unwrap();
        store.save("mining", 0, b"a").unwrap();
        store.save("mining", 1, b"b").unwrap();
        assert!(store.load("mining").unwrap().is_some());
        let snapshot = recorder.snapshot().unwrap();
        let get = |name: &str| {
            snapshot
                .counters
                .iter()
                .find(|(n, _)| n == name)
                .map(|(_, v)| *v)
        };
        assert_eq!(get("ckpt.store.write"), Some(2));
        assert_eq!(get("ckpt.store.load"), Some(1));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn undecodable_payload_is_warned_about_and_discarded() {
        let _guard = serial_writes();
        let dir = tmp_dir("undecodable");
        let recorder = Recorder::enabled();
        let mut c = CheckpointConfig::new(&dir);
        c.resume = true;
        let store = StageStore::open(&c, fp(), recorder.clone()).unwrap();
        store.save("csg", 2, b"xx").unwrap();
        let decoded = store.load_decoded("csg", |b| wire::Dec::new(b).u64());
        assert!(matches!(decoded, Ok(None)), "{decoded:?}");
        assert!(!store.stage_path("csg").exists(), "undecodable file kept");
        store.save("csg", 3, &7u64.to_le_bytes()).unwrap();
        let decoded = store.load_decoded("csg", |b| wire::Dec::new(b).u64());
        assert_eq!(decoded.unwrap(), Some((3, 7)));
        let snapshot = recorder.snapshot().unwrap();
        let names: Vec<(&str, &str)> = snapshot.events.iter().map(|e| (e.name, e.detail)).collect();
        assert_eq!(
            names,
            [
                ("flight.ckpt.write", "csg"),
                ("flight.ckpt.load", "csg"),
                ("flight.log.warning", "csg"),
                ("flight.ckpt.write", "csg"),
                ("flight.ckpt.load", "csg"),
            ]
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn discard_removes_stage_file() {
        let _guard = serial_writes();
        let dir = tmp_dir("discard");
        let store = open(&dir, false);
        store.save("fine", 0, b"x").unwrap();
        assert!(store.stage_path("fine").exists());
        store.discard("fine").unwrap();
        assert!(!store.stage_path("fine").exists());
        store.discard("fine").unwrap(); // idempotent
        std::fs::remove_dir_all(&dir).ok();
    }
}
